package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"cloudmedia"
	"cloudmedia/internal/cloud"
	"cloudmedia/internal/experiments"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/geo"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/viewing"
	"cloudmedia/pkg/plan"
	"cloudmedia/pkg/simulate"
)

// hours is the simulated day every workload runs; each controller then
// makes its t=0 bootstrap round plus one round per hour.
const (
	hours  = 24
	rounds = hours + 1
)

// outcome is one finished run: the results a user of the system sees,
// and the wall clock split at the first engine step.
type outcome struct {
	Hours   float64 // simulated hours covered (the least over regions)
	Rounds  []int   // provisioning rounds per controller, bootstrap included
	Quality float64 // mean streaming quality over the run's samples
	Bill    cloud.LedgerTotals
	Setup   time.Duration // validation, engine build, bootstrap provisioning
	Run     time.Duration // first engine step to the final report
}

// recorded holds a workload's outputs at the default seed, which every
// run at that seed must reproduce bit for bit.
type recorded struct {
	quality, bill float64
}

// benchWorkload is one benchmark input: a closed loop of one run in flight.
type benchWorkload struct {
	name string
	// run executes one full day; tr, when non-nil, decorates the seams.
	run func(seed int64, workers int, tr *tracer) (outcome, error)
	// setup builds the run up to its first engine step and stops there.
	setup func(seed int64, workers int) error
	want  recorded
}

var workloads = []benchWorkload{
	{
		name:  "fluid-100m",
		run:   fluidRun(fluid100M),
		setup: fluidSetup(fluid100M),
		want:  recorded{quality: 0.8444492783624972, bill: 15862992.643836156},
	},
	{
		name:  "geo-outage",
		run:   geoRun,
		setup: geoSetup,
		want:  recorded{quality: 0.9976768729699034, bill: 424.9288448100002},
	},
}

func lookup(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// fluid100M is the BenchmarkFluid100MViewers day: ≈105M peak viewers over
// 48 channels on the fluid engine, greedy hourly planning.
func fluid100M(seed int64) simulate.Scenario {
	const maxVMs = 4_200_000
	return simulate.Default(simulate.CloudAssisted, 1).With(
		cloudmedia.WithFidelity(simulate.FidelityFluid),
		cloudmedia.WithViewerScale(34_000_000),
		cloudmedia.WithChannels(48),
		cloudmedia.WithHours(hours),
		cloudmedia.WithBudgets(5_200_000, 3000),
		cloudmedia.WithVMClusters(
			plan.VMCluster{Name: "mega-a", MaxVMs: maxVMs, PricePerHour: 0.64, Utility: 1.0},
			plan.VMCluster{Name: "mega-b", MaxVMs: maxVMs, PricePerHour: 0.60, Utility: 0.9},
		),
		cloudmedia.WithSeed(seed),
	)
}

// traceScenario decorates a fluid scenario's demand, forecast and policy
// seams, filling in the defaults the run would otherwise pick itself.
func traceScenario(sc simulate.Scenario, tr *tracer) simulate.Scenario {
	src := sc.Source
	if src == nil {
		src = sc.Workload.Source()
	}
	pred := sc.Predictor
	if pred == nil {
		pred = simulate.LastInterval{}
	}
	pol := sc.Policy
	if pol == nil {
		pol = simulate.Greedy{}
	}
	sc.Source = &tracedSource{src: src, tr: tr}
	sc.Predictor = tracedPredictor{p: pred, tr: tr}
	sc.Policy = tracedPolicy{p: pol, tr: tr}
	return sc
}

func fluidRun(build func(int64) simulate.Scenario) func(int64, int, *tracer) (outcome, error) {
	return func(seed int64, workers int, tr *tracer) (outcome, error) {
		sc := build(seed)
		sc.Workers = workers
		var first time.Time // the first engine step ends setup
		pacer := func(float64) {
			if first.IsZero() {
				first = time.Now()
			}
			if tr != nil {
				tr.pace()
			}
		}
		var opts []simulate.RunOption
		if tr != nil {
			sc = traceScenario(sc, tr)
			opts = append(opts,
				simulate.OnInterval(func(simulate.IntervalRecord) { tr.interval() }),
				simulate.OnSnapshot(func(simulate.Snapshot) { tr.closeBarrier() }))
		}
		opts = append(opts, simulate.WithPacer(pacer))
		start := time.Now()
		rep, err := sc.Run(context.Background(), opts...)
		end := time.Now()
		if err != nil {
			return outcome{}, err
		}
		if tr != nil {
			tr.closeBarrier()
			tr.add(span{Name: spanRun, Start: 0, End: tr.now()})
		}
		if first.IsZero() {
			return outcome{}, fmt.Errorf("%s: the engine never stepped", sc.Mode)
		}
		return outcome{
			Hours:   rep.Hours,
			Rounds:  []int{rep.Intervals},
			Quality: rep.MeanQuality,
			Bill:    rep.Bill,
			Setup:   first.Sub(start),
			Run:     end.Sub(first),
		}, nil
	}
}

// fluidSetup runs the scenario under an already-cancelled context: Run
// validates, builds the engine and applies bootstrap provisioning, then
// returns before its first step.
func fluidSetup(build func(int64) simulate.Scenario) func(int64, int) error {
	return func(seed int64, workers int) error {
		sc := build(seed)
		sc.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rep, err := sc.Run(ctx)
		if err != context.Canceled {
			return fmt.Errorf("setup: want a cancelled run, got %v", err)
		}
		if rep.Hours != 0 {
			return fmt.Errorf("setup: the engine stepped to %v h", rep.Hours)
		}
		return nil
	}
}

// windowSeconds is the geo sampling window: one RunUntil call, one
// quality sample per region.
const windowSeconds = 900

// geoConfig is the geo-outage deployment: three regions on the event
// engine at DefaultScenario scale 4, each planning with the spot-hedged
// lookahead under spot pricing, losing its largest region mid-flash-crowd.
func geoConfig(seed int64, workers int) (geo.Config, error) {
	base := experiments.DefaultScenario(0, 4)
	jump := math.Min(1, base.Channel.ChunkSeconds/base.Workload.JumpMeanSeconds)
	transfer, err := viewing.SequentialWithJumps(base.Channel.Chunks, 0.9, jump)
	if err != nil {
		return geo.Config{}, err
	}
	mode, _, err := modes.Engine(modes.CloudAssisted)
	if err != nil {
		return geo.Config{}, err
	}
	return geo.Config{
		Regions:              geo.DefaultRegions(),
		Mode:                 mode,
		Fidelity:             modes.FidelityEvent,
		Channel:              base.Channel,
		Workload:             base.Workload,
		Policy:               provision.Lookahead{SpotHedge: true},
		Pricing:              cloud.SpotPricing(),
		Faults:               fault.Presets()["outage-flash"],
		IntervalSeconds:      3600,
		VMBudgetPerHour:      100,
		StorageBudgetPerHour: 1,
		Transfer:             transfer,
		Seed:                 seed,
		Workers:              workers,
	}, nil
}

func geoSetup(seed int64, workers int) error {
	cfg, err := geoConfig(seed, workers)
	if err != nil {
		return err
	}
	_, err = geo.New(cfg)
	return err
}

func geoRun(seed int64, workers int, tr *tracer) (outcome, error) {
	start := time.Now()
	cfg, err := geoConfig(seed, workers)
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		cfg.Policy = tracedPolicy{p: cfg.Policy, tr: tr}
	}
	dep, err := geo.New(cfg)
	if err != nil {
		return outcome{}, err
	}
	first := time.Now()
	if tr != nil {
		tr.markSetup()
	}
	var qualitySum float64
	samples := 0
	for t := windowSeconds; t <= hours*3600; t += windowSeconds {
		var w0 int64
		if tr != nil {
			w0 = tr.now()
		}
		dep.RunUntil(float64(t))
		if tr != nil {
			tr.add(span{Name: spanWindow, Start: w0, End: tr.now()})
		}
		qualitySum += viewerQuality(dep)
		samples++
	}
	out := outcome{Hours: math.Inf(1)}
	for _, r := range dep.Regions() {
		out.Hours = math.Min(out.Hours, r.Sim.Now()/3600)
		out.Rounds = append(out.Rounds, len(r.Controller.Records()))
		addTotals(&out.Bill, r.Cloud.Ledger().Totals())
	}
	out.Quality = qualitySum / float64(samples)
	end := time.Now()
	if tr != nil {
		tr.add(span{Name: spanRun, Start: 0, End: tr.now()})
	}
	out.Setup, out.Run = first.Sub(start), end.Sub(first)
	return out, nil
}

// viewerQuality is the deployment's share of viewers with no stall in the
// trailing quality window, weighted by each region's viewer count; with no
// viewers anywhere it is 1, as a single region reports.
func viewerQuality(dep *geo.Deployment) float64 {
	var smooth, users float64
	for _, r := range dep.Regions() {
		n := float64(r.Sim.TotalUsers())
		smooth += r.Sim.SampleQuality().Overall * n
		users += n
	}
	if users == 0 {
		return 1
	}
	return smooth / users
}

// addTotals sums one region's ledger into the deployment total.
func addTotals(dst *cloud.LedgerTotals, t cloud.LedgerTotals) {
	dst.ReservedVMHours += t.ReservedVMHours
	dst.OnDemandVMHours += t.OnDemandVMHours
	dst.SpotVMHours += t.SpotVMHours
	dst.GBHours += t.GBHours
	dst.Interruptions += t.Interruptions
	dst.ReservedUSD += t.ReservedUSD
	dst.OnDemandUSD += t.OnDemandUSD
	dst.SpotUSD += t.SpotUSD
	dst.UpfrontUSD += t.UpfrontUSD
	dst.StorageUSD += t.StorageUSD
	dst.TransferUSD += t.TransferUSD
}

// check applies the correctness rules every run must pass; at the
// workload's default seed it also compares against the recorded outputs.
func (w benchWorkload) check(seed int64, out outcome) error {
	if out.Hours != hours {
		return fmt.Errorf("covered %v h, want %v", out.Hours, hours)
	}
	for i, n := range out.Rounds {
		if n != rounds {
			return fmt.Errorf("controller %d made %d rounds, want %d", i, n, rounds)
		}
	}
	if !(out.Quality >= 0 && out.Quality <= 1) {
		return fmt.Errorf("quality %v outside [0, 1]", out.Quality)
	}
	if bill := out.Bill.TotalUSD(); math.IsNaN(bill) || math.IsInf(bill, 0) {
		return fmt.Errorf("bill %v is not finite", bill)
	}
	if seed == defaultSeed && (out.Quality != w.want.quality || out.Bill.TotalUSD() != w.want.bill) {
		return fmt.Errorf("seed %d: quality %v bill %v, recorded %v and %v",
			seed, out.Quality, out.Bill.TotalUSD(), w.want.quality, w.want.bill)
	}
	return nil
}
