package main

import (
	"math"
	"slices"
)

// layerKeys are the per-layer metrics derived from one traced run's
// spans. A layer the workload does not exercise reads 0.
var layerKeys = []struct{ name, unit string }{
	{"fluid.self_s", "s"},
	{"fluid.barriers", "count"},
	{"sim.self_s", "s"},
	{"core.round_s", "s"},
	{"core.self_s", "s"},
	{"core.forecast_s", "s"},
	{"core.rounds", "count"},
	{"provision.plan_s", "s"},
	{"provision.plans", "count"},
	{"provision.scaled_ratio", "fraction"},
	{"workload.self_s", "s"},
	{"workload.calls", "count"},
	{"geo.window_ms_p50", "ms"},
	{"geo.window_ms_p90", "ms"},
}

// layerTimes attributes a traced run's wall time after setup to layers.
// Self time is a span's duration minus its traced children: the fluid
// kernel is the barrier spans minus the controller rounds and demand
// calls inside them, the event engine the geo windows minus their plans,
// and the controller the rounds minus their plans and forecasts. Demand
// and forecast busy time is summed over workers.
func layerTimes(tr *tracer, spans []span) map[string]float64 {
	var barrier, round, window, plan, planInRound, planInWindow float64
	var rounds, plans, scaled, barriers float64
	var windows []float64
	for _, s := range spans {
		if s.Start < tr.setupEnd {
			continue
		}
		d := float64(s.dur()) / 1e9
		switch s.Name {
		case spanBarrier:
			barrier += d
			barriers++
		case spanRound:
			round += d
			rounds++
		case spanWindow:
			window += d
			windows = append(windows, d*1e3)
		case spanPlan:
			plan += d
			plans++
			if s.Scaled {
				scaled++
			}
			if s.Parent >= 0 {
				switch spans[s.Parent].Name {
				case spanRound:
					planInRound += d
				case spanWindow:
					planInWindow += d
				}
			}
		}
	}
	demand := float64(tr.demand.ns.Load()-tr.setupDemandNS) / 1e9
	forecast := float64(tr.forecast.ns.Load()) / 1e9
	m := map[string]float64{
		"fluid.barriers":   barriers,
		"core.round_s":     round,
		"core.forecast_s":  forecast,
		"core.rounds":      rounds,
		"provision.plan_s": plan,
		"provision.plans":  plans,
		"workload.self_s":  demand,
		"workload.calls":   float64(tr.demand.calls.Load() - tr.setupDemandN),
	}
	if barriers > 0 {
		m["fluid.self_s"] = barrier - round - demand
	}
	if len(windows) > 0 {
		m["sim.self_s"] = window - planInWindow
		m["geo.window_ms_p50"] = percentile(windows, 0.50)
		m["geo.window_ms_p90"] = percentile(windows, 0.90)
	}
	if rounds > 0 {
		m["core.self_s"] = round - planInRound - forecast
	}
	if plans > 0 {
		m["provision.scaled_ratio"] = scaled / plans
	}
	return m
}

// percentile is the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}
