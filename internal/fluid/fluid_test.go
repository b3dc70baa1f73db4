package fluid

import (
	"math"
	"slices"
	"sort"
	"testing"

	"cloudmedia/internal/sim"
	"cloudmedia/internal/testutil"
)

// smallConfig mirrors the event engine's test scenario: 2 channels of 5
// chunks, 10-second chunks, steady arrivals.
func smallConfig(t *testing.T, mode sim.Mode) Config {
	t.Helper()
	chCfg := testutil.ChannelConfig(5, 10)
	chCfg.VMBandwidth = 250e3
	return Config{Sim: sim.Config{
		Mode:     mode,
		Channel:  chCfg,
		Workload: testutil.FlatWorkload(2, 0.2, 120),
		Transfer: testutil.Sequential(t, chCfg.Chunks, 0.9),
		Seed:     1,
	}}
}

func provisionGenerously(t *testing.T, b *Backend) {
	t.Helper()
	for c := 0; c < b.Channels(); c++ {
		for i := 0; i < b.ChannelConfig().Chunks; i++ {
			if err := b.SetCloudCapacity(c, i, 100e6); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPopulationBalance: the viewer stock must equal the integral of
// arrival flow minus departure flow — the fluid continuity equation.
func TestPopulationBalance(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	const horizon = 3600.0
	b.RunUntil(horizon)

	var arrived, departed, stock float64
	for c := 0; c < b.C; c++ {
		arrived += b.feeds[c].arrivals
		for _, d := range b.feeds[c].departures {
			departed += d
		}
		stock += b.channelUsers(c)
	}
	if arrived <= 0 {
		t.Fatal("no arrival flow accumulated")
	}
	if diff := math.Abs(arrived - departed - stock); diff > 1e-6*arrived {
		t.Errorf("continuity violated: arrived %v − departed %v ≠ stock %v (diff %v)",
			arrived, departed, stock, diff)
	}
}

// TestCloudBytesNeverExceedCapacityIntegral mirrors the event engine's
// conservation test: with constant capacity C per chunk over T seconds,
// the cloud cannot serve more than C·T·pools bytes.
func TestCloudBytesNeverExceedCapacityIntegral(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	const perChunk = 400e3
	for c := 0; c < b.Channels(); c++ {
		for i := 0; i < b.ChannelConfig().Chunks; i++ {
			if err := b.SetCloudCapacity(c, i, perChunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	const horizon = 1800.0
	b.RunUntil(horizon)
	served := b.CloudBytesServed()
	bound := perChunk * float64(b.Channels()*b.ChannelConfig().Chunks) * horizon
	if served > bound+1e-6 {
		t.Errorf("served %v exceeds capacity integral %v", served, bound)
	}
	if served <= 0 {
		t.Error("no bytes served")
	}
}

// TestP2PCloudAttributionBounded: cloud-attributed bytes can never exceed
// the cloud capacity integral, regardless of peer supply.
func TestP2PCloudAttributionBounded(t *testing.T) {
	b, err := New(smallConfig(t, sim.P2P))
	if err != nil {
		t.Fatal(err)
	}
	const perChunk = 200e3
	for c := 0; c < b.Channels(); c++ {
		for i := 0; i < b.ChannelConfig().Chunks; i++ {
			if err := b.SetCloudCapacity(c, i, perChunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	const horizon = 1800.0
	b.RunUntil(horizon)
	bound := perChunk * float64(b.Channels()*b.ChannelConfig().Chunks) * horizon
	if served := b.CloudBytesServed(); served > bound+1e-6 {
		t.Errorf("cloud-attributed bytes %v exceed cloud capacity integral %v", served, bound)
	}
}

// TestDeterminism: the fluid model has no randomness — two backends over
// the same scenario must agree bit for bit.
func TestDeterminism(t *testing.T) {
	run := func() (float64, float64, int) {
		b, err := New(smallConfig(t, sim.P2P))
		if err != nil {
			t.Fatal(err)
		}
		provisionGenerously(t, b)
		b.RunUntil(7200)
		q := b.SampleQuality()
		return q.Overall, b.CloudBytesServed(), b.TotalUsers()
	}
	q1, bytes1, n1 := run()
	q2, bytes2, n2 := run()
	if q1 != q2 || bytes1 != bytes2 || n1 != n2 {
		t.Errorf("runs differ: (%v,%v,%d) vs (%v,%v,%d)", q1, bytes1, n1, q2, bytes2, n2)
	}
}

// TestGenerousCapacityGivesSmoothPlayback and its starved counterpart pin
// the quality metric's direction.
func TestGenerousCapacityGivesSmoothPlayback(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	b.RunUntil(900)
	if q := b.SampleQuality(); q.Overall < 0.99 {
		t.Errorf("quality %v with generous capacity, want ≈1", q.Overall)
	}
}

func TestStarvedCapacityCausesStalls(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	// No capacity at all: every download starves.
	b.RunUntil(900)
	q := b.SampleQuality()
	if q.Overall > 0.5 {
		t.Errorf("quality %v with zero capacity, want low", q.Overall)
	}
	if b.TotalUsers() == 0 {
		t.Error("starved channel lost its viewers")
	}
	for _, v := range q.PerChannel {
		if v < 0 || v > 1 {
			t.Errorf("per-channel quality %v outside [0,1]", v)
		}
	}
}

// TestFeedMatrixNormalized: the flow-accumulator feed must hand the
// controller a valid transfer matrix.
func TestFeedMatrixNormalized(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	b.RunUntil(1800)
	feed, err := b.Estimator(0)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := feed.ArrivalRate(1800)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Error("no arrival rate observed")
	}
	m, err := feed.Matrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("feed matrix invalid: %v", err)
	}
	var forward float64
	for i := 0; i+1 < len(m); i++ {
		forward += m[i][i+1]
	}
	if forward == 0 {
		t.Error("no forward transition mass observed")
	}
	feed.Reset()
	if r, _ := feed.ArrivalRate(1800); r != 0 {
		t.Errorf("arrival rate %v after Reset, want 0", r)
	}
}

// TestFluidCapacityCacheTracksWrites: the cached capacity totals must
// track SetCloudCapacity writes exactly, and cache hits must not allocate
// (the controller reads totals every sample).
func TestFluidCapacityCacheTracksWrites(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	check := func(context string) {
		t.Helper()
		var want float64
		for c := 0; c < b.C; c++ {
			got, err := b.CloudCapacity(c)
			if err != nil {
				t.Fatal(err)
			}
			var fresh float64
			for j := 0; j < b.J; j++ {
				fresh += b.cloudCap[c*b.J+j]
			}
			if got != fresh {
				t.Errorf("%s: channel %d cached capacity %v != fresh sum %v", context, c, got, fresh)
			}
			want += got
		}
		if got := b.TotalCloudCapacity(); got != want {
			t.Errorf("%s: total capacity %v != sum of channels %v", context, got, want)
		}
	}
	check("initial")
	for c := 0; c < b.C; c++ {
		for j := 0; j < b.J; j++ {
			if err := b.SetCloudCapacity(c, j, float64(100*(c+1)+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after full provisioning")
	if err := b.SetCloudCapacity(1, 3, 7.5); err != nil {
		t.Fatal(err)
	}
	check("after single-chunk overwrite")
	b.RunUntil(120)
	check("after integration")

	var sink float64
	allocs := testing.AllocsPerRun(50, func() {
		sink += b.TotalCloudCapacity()
		for c := 0; c < b.C; c++ {
			v, _ := b.CloudCapacity(c)
			sink += v
		}
	})
	if allocs != 0 {
		t.Errorf("capacity reads allocate %.0f objects, want 0 (sink %v)", allocs, sink)
	}
}

// TestScheduleBarriers: callbacks see the ODE state integrated exactly to
// their timestamp, and repeating callbacks fire on schedule.
func TestScheduleBarriers(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	var fires []float64
	if err := b.ScheduleRepeating(100, 100, func(now float64) {
		fires = append(fires, now)
		if b.Now() != now {
			t.Errorf("callback at %v sees clock %v", now, b.Now())
		}
	}); err != nil {
		t.Fatal(err)
	}
	b.RunUntil(350)
	if len(fires) != 3 {
		t.Fatalf("fired %d times in 350 s with period 100, want 3", len(fires))
	}
}

// TestAllocatePeersOrderIndependent: allocatePeers keeps its rarest-first
// order from step to step, so its result must not depend on the order it
// starts from. Owner counts with ties (all zero, runs of equal counts,
// ±0) must give the permutation a stable sort of the identity gives, and
// bit-equal peer capacity, from the identity and from a scrambled start.
func TestAllocatePeersOrderIndependent(t *testing.T) {
	const J = 12
	chCfg := testutil.ChannelConfig(J, 10)
	b, err := New(Config{Sim: sim.Config{
		Mode:     sim.P2P,
		Channel:  chCfg,
		Workload: testutil.FlatWorkload(2, 0.2, 120),
		Transfer: testutil.Sequential(t, J, 0.9),
		Seed:     1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	const c = 1 // the second channel, so the per-channel offset is exercised
	base := c * J
	negZero := math.Copysign(0, -1)
	cases := map[string][J]float64{
		"all zero": {},
		"runs":     {3, 3, 0, 5, 3, 0, 5, 5, 1, 0, 3, 1},
		"signed 0": {2, negZero, 0, 2, negZero, 1, 0, 1, 2, 0, negZero, 1},
	}
	scrambled := []int{7, 2, 11, 0, 5, 9, 1, 10, 3, 8, 6, 4}
	identity := make([]int, J)
	for j := range identity {
		identity[j] = j
	}
	for name, owners := range cases {
		for j := 0; j < J; j++ {
			b.owners[base+j] = owners[j]
			b.playing[base+j] = 1
			b.waiting[base+j] = 0.05 * float64(j%4)
			b.inWait[base+j] = 0.01 * float64(j%3)
		}
		want := slices.Clone(identity)
		sort.SliceStable(want, func(x, y int) bool { return owners[want[x]] < owners[want[y]] })

		run := func(start []int) ([]uint64, []int) {
			copy(b.order[base:base+J], start)
			b.allocatePeers(c)
			capBits := make([]uint64, J)
			for j := range capBits {
				capBits[j] = math.Float64bits(b.peerCap[base+j])
			}
			return capBits, append([]int(nil), b.order[base:base+J]...)
		}
		capID, orderID := run(identity)
		capScr, orderScr := run(scrambled)
		if !slices.Equal(orderID, want) || !slices.Equal(orderScr, want) {
			t.Errorf("%s: order from identity %v, from scrambled %v, want %v", name, orderID, orderScr, want)
		}
		if !slices.Equal(capID, capScr) {
			t.Errorf("%s: peer capacity depends on the starting order", name)
		}
		var granted bool
		for _, bits := range capID {
			granted = granted || math.Float64frombits(bits) > 0
		}
		if granted == (name == "all zero") {
			t.Errorf("%s: peer capacity granted = %v", name, granted)
		}
	}
}
