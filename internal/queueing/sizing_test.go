package queueing_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/mathx"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/viewing"
)

// sizingChannels are the two channel shapes the controller sizes: the
// paper's 20 × 300 s video at whole-VM servers, and the fluid days'
// 8 × 75 s video at fifth-of-a-VM slots, whose busiest chunk queues
// reach offered loads a ≈ 10⁴ at the arrival rates below; plus two
// variants of the latter with idle chunks and with rates that do not
// fall along the video.
func sizingChannels(t *testing.T) []struct {
	name    string
	cfg     queueing.Config
	p       queueing.TransferMatrix
	lambdas []float64
} {
	paper := queueing.Config{
		Chunks:          20,
		PlaybackRate:    50e3,
		ChunkSeconds:    300,
		VMBandwidth:     cloud.DefaultVMBandwidth,
		EntryFirstChunk: 0.7,
	}
	fluid := queueing.Config{
		Chunks:          8,
		PlaybackRate:    50e3,
		ChunkSeconds:    75,
		VMBandwidth:     cloud.DefaultVMBandwidth,
		EntryFirstChunk: 0.7,
		SlotsPerVM:      5,
	}
	paperP, err := viewing.PaperDefault(paper.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	fluidP, err := viewing.PaperDefault(fluid.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	// Only chunks 0..2 are ever watched: chunks 3.. are idle, so the
	// sizing lanes and the chunk indices part ways.
	partial := queueing.NewTransferMatrix(fluid.Chunks)
	partial[0][1], partial[1][2] = 0.9, 0.5
	partialCfg := fluid
	partialCfg.EntryFirstChunk = 1
	// With no viewers entering at chunk 0, the rates are not in
	// descending chunk order, so lockstep sorting must be undone.
	lateCfg := fluid
	lateCfg.EntryFirstChunk = 0
	return []struct {
		name    string
		cfg     queueing.Config
		p       queueing.TransferMatrix
		lambdas []float64
	}{
		{"paper", paper, paperP, []float64{0, 0.01, 0.25, 3, 40}},
		{"fluid-100m", fluid, fluidP, []float64{0.5, 100, 1000, 1500}},
		{"idle chunks", partialCfg, partial, []float64{0.3, 700}},
		{"late entry", lateCfg, fluidP, []float64{2, 1000}},
	}
}

// TestSolveSizingBitIdenticalToPerChunk pins Solve's one lockstep sizing
// call to sizing each busy chunk on its own: the same server counts and
// bit-equal E[n] and capacities, with idle chunks left at zero.
func TestSolveSizingBitIdenticalToPerChunk(t *testing.T) {
	for _, ch := range sizingChannels(t) {
		for _, lambda := range ch.lambdas {
			eq, err := queueing.Solve(ch.cfg, ch.p, lambda, 0)
			if err != nil {
				t.Fatalf("%s Λ=%v: %v", ch.name, lambda, err)
			}
			for i, li := range eq.ArrivalRates {
				wantServers, wantUsers, wantCap := 0, 0.0, 0.0
				if li != 0 {
					q, err := mathx.MinServersForSojourn(li, ch.cfg.ServiceRate(), ch.cfg.ChunkSeconds, queueing.DefaultMaxServers)
					if err != nil {
						t.Fatalf("%s Λ=%v chunk %d: %v", ch.name, lambda, i, err)
					}
					wantServers, wantUsers = q.Servers, q.MeanJobs()
					wantCap = ch.cfg.SlotBandwidth() * float64(q.Servers)
				}
				if eq.Servers[i] != wantServers ||
					math.Float64bits(eq.MeanUsers[i]) != math.Float64bits(wantUsers) ||
					math.Float64bits(eq.Capacity[i]) != math.Float64bits(wantCap) {
					t.Errorf("%s Λ=%v chunk %d: got m=%d E[n]=%v s=%v, want m=%d E[n]=%v s=%v",
						ch.name, lambda, i, eq.Servers[i], eq.MeanUsers[i], eq.Capacity[i],
						wantServers, wantUsers, wantCap)
				}
			}
		}
	}
}

// TestSolveSizingErrorNamesFirstFailingChunk: chunk 0 is idle (α = 0) and
// the sequential rates grow with the chunk index, so the first failing
// chunk is the first busy one whose queue cannot be sized. An offered
// load of 10¹² must fail before its O(a) warm-up, and a chunk whose
// search comes up short is reported ahead of a later chunk that fails
// validation.
func TestSolveSizingErrorNamesFirstFailingChunk(t *testing.T) {
	cfg := queueing.Config{
		Chunks:          6,
		PlaybackRate:    50e3,
		ChunkSeconds:    300,
		VMBandwidth:     cloud.DefaultVMBandwidth,
		EntryFirstChunk: 0,
	}
	p := queueing.NewTransferMatrix(cfg.Chunks)
	for i := 0; i+1 < cfg.Chunks; i++ {
		p[i][i+1] = 0.9
	}
	mu := cfg.ServiceRate()
	// unit[i] is chunk i's arrival rate per unit of Λ.
	unit, err := queueing.SolveTraffic(p, cfg.ExternalArrivals(1))
	if err != nil {
		t.Fatal(err)
	}
	const maxServers = 100
	tests := []struct {
		name  string
		a1    float64 // offered load of chunk 1, the first busy chunk
		chunk int
	}{
		{"huge load", 1e12, 1},
		// a = 99.999 < 100, but m = 100 leaves the queue too close to
		// saturation to meet T₀; chunk 2 (a ≈ 190) fails validation.
		{"search fails first", 99.999, 1},
		// Chunks 1..3 size (a ≈ 30, 57, 81); chunk 4 (a ≈ 103) fails.
		{"later chunk", 30, 4},
	}
	for _, tc := range tests {
		lambda := tc.a1 * mu / unit[1]
		_, err := queueing.Solve(cfg, p, lambda, maxServers)
		if err == nil {
			t.Errorf("%s: Solve succeeded", tc.name)
			continue
		}
		want := fmt.Sprintf("sizing chunk %d: mathx: no m ≤ %d", tc.chunk, maxServers)
		if msg := err.Error(); !strings.Contains(msg, want) {
			t.Errorf("%s: err %q, want it to contain %q", tc.name, msg, want)
		}
	}
}
