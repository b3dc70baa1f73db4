package analysis

import (
	"go/ast"
	"go/types"
)

// Hotpath makes the zero-allocation contract of the per-step functions
// (the workload.RatesInto family, core.FlattenDemandsInto, the rebalance
// and fluid-step loops) checkable at the line level. The AllocsPerRun
// guards prove the steady state allocates nothing; this analyzer explains
// *why* by forbidding the constructs that could allocate at all inside
// any function annotated //cloudmedia:hotpath:
//
//   - map, slice, and channel construction (literals, make, new);
//   - append into a slice freshly allocated in the same function
//     (append into caller-provided or reused scratch is fine);
//   - fmt calls (even error paths: a hot path's guard clauses delegate
//     message formatting to a cold helper);
//   - function literals (closures capture and escape).
//
// Struct and array literals stay on the stack and are allowed. It also
// reports math.Min and math.Max: they allocate nothing, but on amd64 they
// call a stub the compiler does not inline, while the builtin min and max
// have the same NaN and ±0 semantics and are inlined.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocating constructs in //cloudmedia:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !funcIsHotpath(fn) || fn.Body == nil {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	fresh := freshSlices(pass, fn)
	name := fn.Name.Name

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in hot path %s: function literals capture and may escape to the heap", name)
			return false // its body is the closure's problem, reported once
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in hot path %s allocates", name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in hot path %s allocates: reuse a scratch buffer", name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, name, fresh)
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr, name string, fresh map[types.Object]bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		b, ok := pass.TypesInfo.ObjectOf(fun).(*types.Builtin)
		if !ok {
			return
		}
		switch b.Name() {
		case "make":
			pass.Reportf(call.Pos(), "make in hot path %s allocates: reuse a scratch buffer", name)
		case "new":
			pass.Reportf(call.Pos(), "new in hot path %s allocates", name)
		case "append":
			if len(call.Args) == 0 {
				return
			}
			if obj := appendBaseObj(pass, call.Args[0]); obj != nil && fresh[obj] {
				pass.Reportf(call.Pos(),
					"append into slice freshly allocated in hot path %s: append into caller-provided or reused scratch instead", name)
			}
		}
	case *ast.SelectorExpr:
		ident, ok := fun.X.(*ast.Ident)
		if !ok {
			return
		}
		pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
		if !ok {
			return
		}
		switch path := pkgName.Imported().Path(); {
		case path == "fmt":
			pass.Reportf(call.Pos(),
				"fmt.%s in hot path %s allocates: delegate formatting to a cold helper", fun.Sel.Name, name)
		case path == "math" && (fun.Sel.Name == "Min" || fun.Sel.Name == "Max"):
			pass.Reportf(call.Pos(),
				"math.%s in hot path %s: use builtin min/max: math.%s is not inlined on amd64", fun.Sel.Name, name, fun.Sel.Name)
		}
	}
}

// freshSlices collects the local variables the function initializes from
// an allocating expression (make, composite literal, new): appending into
// those is growth of a fresh allocation, not reuse of caller scratch.
func freshSlices(pass *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		ident, ok := lhs.(*ast.Ident)
		if !ok || ident.Name == "_" {
			return
		}
		if !allocatingExpr(pass, rhs) {
			return
		}
		if obj := pass.TypesInfo.ObjectOf(ident); obj != nil {
			fresh[obj] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i := range vs.Names {
					record(vs.Names[i], vs.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

// allocatingExpr reports whether the expression freshly allocates a
// slice/map (make, literal, new).
func allocatingExpr(pass *Pass, expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		ident, ok := e.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := pass.TypesInfo.ObjectOf(ident).(*types.Builtin)
		return ok && (b.Name() == "make" || b.Name() == "new")
	}
	return false
}

// appendBaseObj unwraps the append destination to its base identifier's
// object. Slice expressions (x[:0], x[:n]) are explicit reuse and return
// nil, as do non-identifier bases (fields, parameters through selectors).
func appendBaseObj(pass *Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SliceExpr:
			return nil
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(e)
		default:
			return nil
		}
	}
}
