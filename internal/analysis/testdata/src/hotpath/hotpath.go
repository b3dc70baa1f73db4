// Package hotpath exercises the hotpath analyzer: allocating constructs
// are forbidden only inside functions annotated //cloudmedia:hotpath.
package hotpath

import (
	"fmt"
	"math"
)

type point struct{ x, y int }

//cloudmedia:hotpath
func allocates(n int) []int {
	m := map[string]int{} // want "map literal in hot path"
	_ = m
	s := []int{1, 2} // want "slice literal in hot path"
	_ = s
	return make([]int, n) // want "make in hot path"
}

//cloudmedia:hotpath
func formats(x int) string {
	return fmt.Sprintf("%d", x) // want "fmt.Sprintf in hot path"
}

//cloudmedia:hotpath
func captures() func() int {
	return func() int { return 1 } // want "closure in hot path"
}

//cloudmedia:hotpath
func growsFresh() []int {
	out := make([]int, 0, 4) // want "make in hot path"
	out = append(out, 1)     // want "append into slice freshly allocated"
	return out
}

// reuses appends into caller-provided scratch after an explicit
// truncation — the sanctioned zero-allocation shape.
//
//cloudmedia:hotpath
func reuses(dst []int, vals []int) []int {
	dst = dst[:0]
	for _, v := range vals {
		dst = append(dst, v)
	}
	return dst
}

// stackValues builds struct and array values, which stay off the heap.
//
//cloudmedia:hotpath
func stackValues() point {
	coords := [2]int{3, 4}
	return point{x: coords[0], y: coords[1]}
}

//cloudmedia:hotpath
func clamps(x, lo, hi float64) float64 {
	x = math.Max(x, lo)    // want "use builtin min/max: math.Max is not inlined"
	return math.Min(x, hi) // want "use builtin min/max: math.Min is not inlined"
}

// clampsBuiltin is the sanctioned form: the builtins are inlined, and
// other math functions are none of the analyzer's business.
//
//cloudmedia:hotpath
func clampsBuiltin(x, lo, hi float64) float64 {
	return math.Abs(min(max(x, lo), hi))
}

// coldMin is unannotated: math.Min is fine off the hot path.
func coldMin(x, y float64) float64 {
	return math.Min(x, y)
}

// coldHelper is unannotated: it may allocate and format freely.
func coldHelper(n, channels int) error {
	buf := make([]byte, 0, 64)
	_ = buf
	return fmt.Errorf("buffer length %d != channels %d", n, channels)
}

//cloudmedia:hotpath
func hatched() []int {
	//cloudmedia:allow hotpath -- fixture exercises the escape hatch
	return make([]int, 1)
}
