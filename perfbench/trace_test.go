package main

import (
	"context"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/workload"
	"cloudmedia/pkg/simulate"
)

// The decorators must be invisible to the run: every optional method the
// engines and the controller look for is forwarded.

func TestTracedSourceForwards(t *testing.T) {
	tr := newTracer()
	inner := workload.Default().Source()
	var src workload.Source = &tracedSource{src: inner, tr: tr}

	batch, ok := src.(workload.BatchSource)
	if !ok {
		t.Fatal("traced source hides workload.BatchSource")
	}
	n := src.NumChannels()
	got, want := make([]float64, n), make([]float64, n)
	if err := batch.RatesInto(3600, got); err != nil {
		t.Fatal(err)
	}
	if err := workload.RatesInto(inner, 3600, want); err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("channel %d: RatesInto %v, inner %v", c, got[c], want[c])
		}
	}

	clone, ok := src.CloneSource().(*tracedSource)
	if !ok || clone.tr != tr || clone.src == inner {
		t.Fatalf("CloneSource must deep-copy the inner source and keep the tracer, got %#v", clone)
	}
	if _, err := clone.Rate(0, 0); err != nil {
		t.Fatal(err)
	}
	if calls := tr.demand.calls.Load(); calls != 2 {
		t.Fatalf("demand calls = %d, want 2 (RatesInto on the source, Rate on its clone)", calls)
	}

	bad := workload.Default()
	bad.Channels = 0
	if err := (&tracedSource{src: bad.Source(), tr: tr}).Validate(); err == nil {
		t.Fatal("Validate does not forward the inner source's error")
	}
}

func TestTracedValidateForwards(t *testing.T) {
	tr := newTracer()
	if err := (tracedPredictor{p: core.EWMA{Alpha: 2}, tr: tr}).Validate(); err == nil {
		t.Error("predictor Validate does not forward")
	}
	if err := (tracedPredictor{p: core.LastInterval{}, tr: tr}).Validate(); err != nil {
		t.Errorf("predictor without Validate: %v", err)
	}
	if err := (tracedPolicy{p: provision.StaticPeak{Intervals: -1}, tr: tr}).Validate(); err == nil {
		t.Error("policy Validate does not forward")
	}
	if err := (tracedPolicy{p: provision.Greedy{}, tr: tr}).Validate(); err != nil {
		t.Errorf("policy without Validate: %v", err)
	}
}

// StaticPeak stops wanting forecasts after its one plan; the decorated
// planner must say so too, or the controller recomputes them every round.
func TestTracedPlannerForwardsFutureDemander(t *testing.T) {
	pl := tracedPolicy{p: provision.StaticPeak{}, tr: newTracer()}.NewPlanner()
	fd, ok := pl.(provision.FutureDemander)
	if !ok {
		t.Fatal("traced planner hides provision.FutureDemander")
	}
	if !fd.NeedsFuture() {
		t.Fatal("StaticPeak wants its horizon before the first plan")
	}
	req := provision.PlanRequest{
		IntervalSeconds: 3600,
		Demands:         []provision.ChunkDemand{{Channel: 0, Chunk: 0, Demand: 1e6}},
		VMBandwidth:     cloud.DefaultVMBandwidth,
		ChunkBytes:      1e6,
		VMClusters:      cloud.DefaultVMClusters(),
		NFSClusters:     cloud.DefaultNFSClusters(),
		VMBudgetPerHour: 100,
	}
	if _, err := pl.Plan(req); err != nil {
		t.Fatal(err)
	}
	if fd.NeedsFuture() {
		t.Fatal("NeedsFuture still true after StaticPeak planned")
	}
	greedy := tracedPolicy{p: provision.Greedy{}, tr: newTracer()}.NewPlanner()
	if !greedy.(provision.FutureDemander).NeedsFuture() {
		t.Fatal("a planner without the refinement must keep wanting forecasts")
	}
}

// A decorated run must give exactly the plain run's outputs.
func TestDecoratedRunEqualsPlain(t *testing.T) {
	for _, name := range []string{"fluid-100m", "geo-outage"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("full simulated day")
			}
			w, ok := lookup(name)
			if !ok {
				t.Fatal("unknown workload")
			}
			plain, err := w.run(defaultSeed, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := w.run(defaultSeed, 2, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.check(defaultSeed, plain); err != nil {
				t.Fatal(err)
			}
			if traced.Quality != plain.Quality || traced.Bill != plain.Bill {
				t.Fatalf("traced quality %v bill %+v, plain %v %+v", traced.Quality, traced.Bill, plain.Quality, plain.Bill)
			}
			if len(tr.finish()) == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

// StaticPeak plans on forecasts through the decorated planner; the run
// must still match the plain one.
func TestDecoratedStaticPeakEqualsPlain(t *testing.T) {
	sc := simulate.Default(simulate.CloudAssisted, 1)
	sc.Fidelity = simulate.FidelityFluid
	sc.Hours = 6
	sc.Policy = provision.StaticPeak{Intervals: 6}
	plain, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := traceScenario(sc, tr).Run(context.Background(),
		simulate.WithPacer(func(float64) { tr.pace() }),
		simulate.OnInterval(func(simulate.IntervalRecord) { tr.interval() }))
	if err != nil {
		t.Fatal(err)
	}
	if traced.MeanQuality != plain.MeanQuality || traced.Bill != plain.Bill {
		t.Fatalf("traced quality %v bill %+v, plain %v %+v", traced.MeanQuality, traced.Bill, plain.MeanQuality, plain.Bill)
	}
}
