package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudmedia/internal/core"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/workload"
)

// span is one timed interval at a layer boundary, in nanoseconds since the
// tracer's origin. Parent is the index of the innermost span that encloses
// it (-1 for a root), resolved after the run by containment.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	// Scaled marks a plan whose budget forced DemandScale below 1.
	Scaled bool `json:"scaled,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names. Barrier, round, plan and window spans are recorded on the
// simulation goroutine; the demand and forecast seams run on the engines'
// worker pools, so they only add busy time and call counts atomically.
const (
	spanRun     = "run"
	spanSetup   = "setup"
	spanBarrier = "barrier" // fluid: one pacer call to the next pacer or snapshot
	spanRound   = "round"   // controller: first Predict of a round to its OnInterval
	spanPlan    = "plan"    // provision.Planner.Plan
	spanWindow  = "window"  // geo: one Deployment.RunUntil call
)

// busy sums the time several workers spend inside one seam. Concurrent
// calls add their durations, so the total can exceed the wall time.
type busy struct {
	ns    atomic.Int64
	calls atomic.Int64
}

func (b *busy) add(d int64) {
	b.ns.Add(d)
	b.calls.Add(1)
}

// tracer records spans and counters from the decorators wrapped around a
// run's public seams. One tracer serves one run.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	barrier int // index of the open barrier span, -1 if none

	// roundStart is 1 + the start offset of the open controller round
	// (its first Predict call), 0 when no round is open.
	roundStart atomic.Int64

	demand   busy // workload.Source calls
	forecast busy // core.Predictor calls

	// setupEnd is the offset of the first engine step (0 until then); the
	// demand calls made before it (envelope priming, bootstrap estimates)
	// are setup's.
	setupEnd                    int64
	setupDemandNS, setupDemandN int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), barrier: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	s.Parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// markSetup records the end of setup: the first engine step. It runs on
// the simulation goroutine before any worker is started.
func (t *tracer) markSetup() {
	t.setupEnd = t.now()
	t.setupDemandNS, t.setupDemandN = t.demand.ns.Load(), t.demand.calls.Load()
	t.add(span{Name: spanSetup, Start: 0, End: t.setupEnd})
}

// pace is the WithPacer hook: it closes the open barrier span and opens
// the next one.
func (t *tracer) pace() {
	if t.setupEnd == 0 {
		t.markSetup()
	}
	now := t.now()
	t.mu.Lock()
	if t.barrier >= 0 {
		t.spans[t.barrier].End = now
	}
	t.spans = append(t.spans, span{Name: spanBarrier, Start: now, End: now, Parent: -1})
	t.barrier = len(t.spans) - 1
	t.mu.Unlock()
}

// closeBarrier ends the open barrier span (at a snapshot or the run's end).
func (t *tracer) closeBarrier() {
	now := t.now()
	t.mu.Lock()
	if t.barrier >= 0 {
		t.spans[t.barrier].End = now
		t.barrier = -1
	}
	t.mu.Unlock()
}

// interval is the OnInterval hook: it closes the open controller round.
// The t=0 bootstrap round calls no predictor, so it opens no span; it
// belongs to setup.
func (t *tracer) interval() {
	if start := t.roundStart.Swap(0); start != 0 {
		t.add(span{Name: spanRound, Start: start - 1, End: t.now()})
	}
}

// finish links every span to its innermost enclosing span and returns
// them ordered by start time.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	// Outer spans first: by start, then longest first, so a stack of the
	// spans still open at each start holds exactly its ancestors.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	for i := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = -1
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return spans
}

// tracedSource decorates the demand seam (workload.Source and its batched
// refinement). Clones share the tracer, so the engine's private copy is
// traced too.
type tracedSource struct {
	src workload.Source
	tr  *tracer
}

func (s *tracedSource) NumChannels() int { return s.src.NumChannels() }

func (s *tracedSource) Rate(channel int, t float64) (float64, error) {
	start := s.tr.now()
	r, err := s.src.Rate(channel, t)
	s.tr.demand.add(s.tr.now() - start)
	return r, err
}

func (s *tracedSource) MaxRate(channel int) (float64, error) {
	start := s.tr.now()
	r, err := s.src.MaxRate(channel)
	s.tr.demand.add(s.tr.now() - start)
	return r, err
}

func (s *tracedSource) MeanRate(channel int, from, to float64) (float64, error) {
	start := s.tr.now()
	r, err := s.src.MeanRate(channel, from, to)
	s.tr.demand.add(s.tr.now() - start)
	return r, err
}

// RatesInto implements workload.BatchSource, keeping the inner source's
// batched path (or its per-channel fallback) exactly as the engine would
// reach it undecorated.
func (s *tracedSource) RatesInto(t float64, dst []float64) error {
	start := s.tr.now()
	err := workload.RatesInto(s.src, t, dst)
	s.tr.demand.add(s.tr.now() - start)
	return err
}

func (s *tracedSource) CloneSource() workload.Source {
	return &tracedSource{src: s.src.CloneSource(), tr: s.tr}
}

func (s *tracedSource) Validate() error { return s.src.Validate() }

// validator is the optional Validate method the scenario and controller
// look for on predictors and policies; the decorators keep exposing it.
type validator interface{ Validate() error }

func validate(v any) error {
	if v, ok := v.(validator); ok {
		return v.Validate()
	}
	return nil
}

// tracedPredictor decorates the forecast seam. Its first call after a
// round closes opens the next round span.
type tracedPredictor struct {
	p  core.Predictor
	tr *tracer
}

func (p tracedPredictor) Predict(history []float64) float64 {
	start := p.tr.now()
	p.tr.roundStart.CompareAndSwap(0, start+1)
	v := p.p.Predict(history)
	p.tr.forecast.add(p.tr.now() - start)
	return v
}

func (p tracedPredictor) Validate() error { return validate(p.p) }

// tracedPolicy decorates the provisioning-policy seam; its planners time
// every Plan call.
type tracedPolicy struct {
	p  provision.Policy
	tr *tracer
}

func (p tracedPolicy) Name() string    { return p.p.Name() }
func (p tracedPolicy) Lookahead() int  { return p.p.Lookahead() }
func (p tracedPolicy) Oracle() bool    { return p.p.Oracle() }
func (p tracedPolicy) Validate() error { return validate(p.p) }

func (p tracedPolicy) NewPlanner() provision.Planner {
	return &tracedPlanner{pl: p.p.NewPlanner(), tr: p.tr}
}

type tracedPlanner struct {
	pl provision.Planner
	tr *tracer
}

func (p *tracedPlanner) Plan(req provision.PlanRequest) (provision.PlanResult, error) {
	start := p.tr.now()
	res, err := p.pl.Plan(req)
	p.tr.add(span{Name: spanPlan, Start: start, End: p.tr.now(), Scaled: err == nil && res.DemandScale < 1})
	return res, err
}

// NeedsFuture implements provision.FutureDemander by forwarding; a planner
// without the refinement always wants its policy's lookahead.
func (p *tracedPlanner) NeedsFuture() bool {
	if fd, ok := p.pl.(provision.FutureDemander); ok {
		return fd.NeedsFuture()
	}
	return true
}
