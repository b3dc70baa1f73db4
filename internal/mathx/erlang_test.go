package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestErlangBKnownValues(t *testing.T) {
	// Classic reference values for the Erlang-B formula.
	tests := []struct {
		m    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{5, 3, 0.110054},
		{10, 5, 0.018385},
	}
	for _, tc := range tests {
		got := ErlangB(tc.m, tc.a)
		if !ApproxEqual(got, tc.want, 1e-4) {
			t.Errorf("ErlangB(%d, %v) = %v, want %v", tc.m, tc.a, got, tc.want)
		}
	}
}

func TestErlangCSingleServerMatchesMM1(t *testing.T) {
	// For m = 1, Erlang-C reduces to the M/M/1 delay probability ρ.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, rho); !ApproxEqual(got, rho, 1e-12) {
			t.Errorf("ErlangC(1, %v) = %v, want %v", rho, got, rho)
		}
	}
}

func TestErlangCBounds(t *testing.T) {
	if got := ErlangC(5, 0); got != 0 {
		t.Errorf("ErlangC(5, 0) = %v, want 0", got)
	}
	if got := ErlangC(3, 3); got != 1 {
		t.Errorf("ErlangC at saturation = %v, want 1", got)
	}
	if got := ErlangC(3, 5); got != 1 {
		t.Errorf("ErlangC overloaded = %v, want 1", got)
	}
}

func TestNewMMmValidation(t *testing.T) {
	if _, err := NewMMm(-1, 1, 1); err == nil {
		t.Error("negative λ: want error")
	}
	if _, err := NewMMm(1, 0, 1); err == nil {
		t.Error("zero µ: want error")
	}
	if _, err := NewMMm(1, 1, 0); err == nil {
		t.Error("zero m: want error")
	}
	if _, err := NewMMm(2, 1, 2); !errors.Is(err, ErrUnstable) {
		t.Errorf("saturated queue: err = %v, want ErrUnstable", err)
	}
}

func TestMM1MatchesClosedForm(t *testing.T) {
	// M/M/1: E[n] = ρ/(1−ρ), E[T] = 1/(µ−λ).
	lambda, mu := 0.6, 1.0
	q, err := NewMMm(lambda, mu, 1)
	if err != nil {
		t.Fatalf("NewMMm: %v", err)
	}
	rho := lambda / mu
	if got, want := q.MeanJobs(), rho/(1-rho); !ApproxEqual(got, want, 1e-10) {
		t.Errorf("MeanJobs = %v, want %v", got, want)
	}
	if got, want := q.MeanSojourn(), 1/(mu-lambda); !ApproxEqual(got, want, 1e-10) {
		t.Errorf("MeanSojourn = %v, want %v", got, want)
	}
}

func TestMMmLittlesLaw(t *testing.T) {
	q, err := NewMMm(7, 1.5, 6)
	if err != nil {
		t.Fatalf("NewMMm: %v", err)
	}
	if got, want := q.MeanJobs(), q.Lambda*q.MeanSojourn(); !ApproxEqual(got, want, 1e-10) {
		t.Errorf("Little's law violated: E[n]=%v λE[T]=%v", got, want)
	}
}

func TestMMmStateProbabilitiesSumToOne(t *testing.T) {
	q, err := NewMMm(4, 1, 6)
	if err != nil {
		t.Fatalf("NewMMm: %v", err)
	}
	var sum float64
	for k := 0; k < 300; k++ {
		sum += q.StateProbability(k)
	}
	if !ApproxEqual(sum, 1, 1e-9) {
		t.Errorf("state probabilities sum to %v, want 1", sum)
	}
}

func TestMMmMeanJobsMatchesStateSum(t *testing.T) {
	// E[n] from the closed form must agree with Σ k·p(k) — this is exactly
	// the paper's Eqn. (3) versus our Erlang-C shortcut.
	q, err := NewMMm(5, 1.2, 7)
	if err != nil {
		t.Fatalf("NewMMm: %v", err)
	}
	var byState float64
	for k := 0; k < 500; k++ {
		byState += float64(k) * q.StateProbability(k)
	}
	if got := q.MeanJobs(); !ApproxEqual(got, byState, 1e-6) {
		t.Errorf("MeanJobs=%v, Σk·p(k)=%v", got, byState)
	}
}

func TestMinServersForSojourn(t *testing.T) {
	// λ=10/s, µ=1/s: need at least 11 servers for stability.
	q, err := MinServersForSojourn(10, 1, 1.5, 1000)
	if err != nil {
		t.Fatalf("MinServersForSojourn: %v", err)
	}
	m := q.Servers
	if m < 11 {
		t.Errorf("m = %d, want at least 11 (stability)", m)
	}
	if q.MeanSojourn() > 1.5 {
		t.Errorf("sojourn %v exceeds target at m=%d", q.MeanSojourn(), m)
	}
	if m > 11 {
		// Minimality: one fewer server must miss the target (or be unstable).
		prev, err := NewMMm(10, 1, m-1)
		if err == nil && prev.MeanSojourn() <= 1.5 {
			t.Errorf("m=%d not minimal: m-1 already meets target", m)
		}
	}
}

func TestMinServersForSojournZeroLoad(t *testing.T) {
	q, err := MinServersForSojourn(0, 1, 2, 10)
	if err != nil {
		t.Fatalf("MinServersForSojourn: %v", err)
	}
	if q.Servers != 1 {
		t.Errorf("m = %d, want 1 for zero load", q.Servers)
	}
	if q.MeanSojourn() != 1 || q.MeanJobs() != 0 {
		t.Errorf("zero load: E[T]=%v E[n]=%v, want 1/µ=1 and 0", q.MeanSojourn(), q.MeanJobs())
	}
}

func TestMinServersForSojournUnreachable(t *testing.T) {
	// Service time 1/µ = 10 alone exceeds target 1: no m works.
	if _, err := MinServersForSojourn(1, 0.1, 1, 100); err == nil {
		t.Error("want error when service time exceeds target")
	}
	// Bound too small to stabilize the queue.
	if _, err := MinServersForSojourn(1000, 1, 2000, 5); err == nil {
		t.Error("want error when maxServers below stability threshold")
	}
}

func TestMinServersForSojournRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name             string
		lambda, mu, goal float64
		maxServers       int
	}{
		{"NaN λ", nan, 1, 2, 100000},
		{"+Inf λ", inf, 1, 2, 100000},
		{"−Inf λ", -inf, 1, 2, 100000},
		{"NaN µ", 1, nan, 2, 100000},
		{"+Inf µ", 1, inf, 2, 100000},
		{"−Inf µ", 1, -inf, 2, 100000},
		{"NaN target", 1, 1, nan, 100000},
		{"+Inf target", 1, 1, inf, 100000},
		{"−Inf target", 1, 1, -inf, 100000},
		{"negative λ", -1, 1, 2, 100},
		{"zero µ", 1, 0, 2, 100},
		{"zero target", 1, 1, 0, 100},
		{"zero bound", 1, 1, 2, 0},
		// a = 1e12: the smallest stable m is far past the bound, and the
		// error must come before an O(a) warm-up of the recurrence.
		{"start > maxServers", 1e12, 1, 2, 100000},
		{"a == maxServers", 100, 1, 2, 100},
	}
	for _, tc := range tests {
		if q, err := MinServersForSojourn(tc.lambda, tc.mu, tc.goal, tc.maxServers); err == nil {
			t.Errorf("%s: got m=%d, want error", tc.name, q.Servers)
		}
	}
}

// minServersReference is the sizing rule written from scratch: every
// candidate m rebuilds its queue, and Erlang-B, with NewMMm.
func minServersReference(lambda, mu, target float64, maxServers int) (MMm, bool) {
	for m := 1; m <= maxServers; m++ {
		q, err := NewMMm(lambda, mu, m)
		if err != nil {
			continue
		}
		if q.MeanSojourn() <= target {
			return q, true
		}
	}
	return MMm{}, false
}

// TestMinServersForSojournBitIdentical pins the single-pass recurrence to
// the from-scratch rule: the same m and bit-equal E[n], C(m, a) and E[T],
// including a < 1 (warm-up from B(0) = 1) and bounds that cut the search
// off before the target is met.
func TestMinServersForSojournBitIdentical(t *testing.T) {
	for _, load := range []float64{0.3, 0.999, 1, 7.5, 99.999, 1e4, 5e4} {
		for _, mu := range []float64{1.0 / 30, 1, 2.5} {
			lambda := load * mu
			a := lambda / mu
			start := int(math.Floor(a)) + 1
			for _, slack := range []float64{1, 1.0001, 1.01, 1.5, 4} {
				target := slack / mu
				for _, maxServers := range []int{start - 1, start, start + 3, start + 1000} {
					if maxServers < 1 {
						continue
					}
					want, ok := minServersReference(lambda, mu, target, maxServers)
					got, err := MinServersForSojourn(lambda, mu, target, maxServers)
					if (err == nil) != ok {
						t.Errorf("λ=%v µ=%v T=%v max=%d: err=%v, reference found=%v",
							lambda, mu, target, maxServers, err, ok)
						continue
					}
					if !ok {
						continue
					}
					if got.Servers != want.Servers ||
						math.Float64bits(got.MeanJobs()) != math.Float64bits(want.MeanJobs()) ||
						math.Float64bits(got.DelayProbability()) != math.Float64bits(want.DelayProbability()) ||
						math.Float64bits(got.MeanSojourn()) != math.Float64bits(want.MeanSojourn()) {
						t.Errorf("λ=%v µ=%v T=%v max=%d: got m=%d E[n]=%v C=%v E[T]=%v, want m=%d E[n]=%v C=%v E[T]=%v",
							lambda, mu, target, maxServers,
							got.Servers, got.MeanJobs(), got.DelayProbability(), got.MeanSojourn(),
							want.Servers, want.MeanJobs(), want.DelayProbability(), want.MeanSojourn())
					}
				}
			}
		}
	}
}

// TestMinServersProperty: the returned m is always stable, meets the
// target, and is minimal.
func TestMinServersProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lambda := 0.5 + r.Float64()*30
		mu := 0.5 + r.Float64()*3
		target := 1/mu + r.Float64()*5 // always reachable
		q, err := MinServersForSojourn(lambda, mu, target, 100000)
		if err != nil || q.MeanSojourn() > target+1e-9 {
			return false
		}
		m := q.Servers
		if m == 1 {
			return true
		}
		prev, err := NewMMm(lambda, mu, m-1)
		if err != nil {
			return true // m−1 unstable → minimal
		}
		return prev.MeanSojourn() > target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSojournMonotoneInServers(t *testing.T) {
	prev := math.Inf(1)
	for m := 4; m <= 20; m++ {
		q, err := NewMMm(3.5, 1, m)
		if err != nil {
			t.Fatalf("NewMMm(%d): %v", m, err)
		}
		if s := q.MeanSojourn(); s > prev+1e-12 {
			t.Errorf("sojourn not monotone: m=%d gives %v > %v", m, s, prev)
		} else {
			prev = s
		}
	}
}

// sameQueue reports whether two queues are bit-identical in every field.
func sameQueue(x, y MMm) bool {
	return x.Servers == y.Servers &&
		math.Float64bits(x.Lambda) == math.Float64bits(y.Lambda) &&
		math.Float64bits(x.Mu) == math.Float64bits(y.Mu) &&
		math.Float64bits(x.offered) == math.Float64bits(y.offered) &&
		math.Float64bits(x.delayP) == math.Float64bits(y.delayP)
}

// TestMinServersForSojournLanesBitIdentical pins the lockstep warm-up to
// the from-scratch rule on ragged lane sets: idle lanes, a < 1, a one ulp
// below and above an integer, a == maxServers, equal lanes and a single
// lane. Every lane before the first failing one must carry the reference
// queue bit for bit, and the call must name that lane with the error the
// lane gets alone.
func TestMinServersForSojournLanesBitIdentical(t *testing.T) {
	below100 := math.Nextafter(100, 0)
	laneSets := [][]float64{
		{0.3, 0.999, 1, 7.5, 99.999, 1e4, 5e4},
		{5e4, 0, 1e4, 0.3, 0, below100, 7.5, 100},
		{math.Nextafter(3, 0), 3, math.Nextafter(3, 4), 0.5},
		{1e4, 1e4, 1e4, 1e4},
		{0, 0},
		{7.5},
		{1e4},
		{},
	}
	for _, mu := range []float64{1.0 / 30, 1, 2.5} {
		for _, slack := range []float64{1, 1.0001, 1.01, 1.5, 4} {
			target := slack / mu
			for _, maxServers := range []int{3, 100, 1000, 50100} {
				if slack == 1 && maxServers > 1000 {
					// E[T] = 1/µ is out of reach, so the reference would
					// rebuild Erlang-B for every m up to the bound.
					continue
				}
				for _, loads := range laneSets {
					lambdas := make([]float64, len(loads))
					for i, load := range loads {
						lambdas[i] = load * mu
					}
					checkLanes(t, lambdas, mu, target, maxServers)
				}
			}
		}
	}
}

// checkLanes sizes lambdas in one lockstep call and compares it with the
// from-scratch reference and the one-lane call, lane by lane in order.
func checkLanes(t *testing.T, lambdas []float64, mu, target float64, maxServers int) {
	t.Helper()
	out := make([]MMm, len(lambdas))
	lane, err := MinServersForSojournLanes(lambdas, mu, target, maxServers, out)
	for i, lambda := range lambdas {
		want, ok := minServersReference(lambda, mu, target, maxServers)
		if !ok {
			_, wantErr := MinServersForSojourn(lambda, mu, target, maxServers)
			if err == nil || lane != i || wantErr == nil || err.Error() != wantErr.Error() {
				t.Errorf("λ=%v µ=%v T=%v max=%d: lanes failed at %d with %v, want lane %d with %v",
					lambdas, mu, target, maxServers, lane, err, i, wantErr)
			}
			return
		}
		if !sameQueue(out[i], want) {
			t.Errorf("λ=%v µ=%v T=%v max=%d lane %d: got m=%d E[n]=%v C=%v E[T]=%v, want m=%d E[n]=%v C=%v E[T]=%v",
				lambdas, mu, target, maxServers, i,
				out[i].Servers, out[i].MeanJobs(), out[i].DelayProbability(), out[i].MeanSojourn(),
				want.Servers, want.MeanJobs(), want.DelayProbability(), want.MeanSojourn())
		}
	}
	if err != nil || lane != -1 {
		t.Errorf("λ=%v µ=%v T=%v max=%d: lanes failed at %d with %v, reference sizes every lane",
			lambdas, mu, target, maxServers, lane, err)
	}
}

// TestMinServersForSojournLanesErrorOrder: a lane whose smallest stable
// m exceeds the bound fails before any warm-up (a = 1e12 would otherwise
// take hours), yet a lane before it whose search comes up short is still
// the one reported.
func TestMinServersForSojournLanesErrorOrder(t *testing.T) {
	const mu, target, maxServers = 1.0, 1.0001, 100
	tests := []struct {
		name    string
		lambdas []float64
		lane    int
	}{
		{"huge load", []float64{7.5, 1e12, 50}, 1},
		{"huge load first", []float64{1e12, 7.5}, 0},
		{"search fails first", []float64{7.5, 99.999, 1e12}, 1},
		{"bad input after huge load", []float64{1e12, math.NaN()}, 0},
		{"negative rate", []float64{7.5, -1, 1e12}, 1},
	}
	for _, tc := range tests {
		out := make([]MMm, len(tc.lambdas))
		lane, err := MinServersForSojournLanes(tc.lambdas, mu, target, maxServers, out)
		if err == nil || lane != tc.lane {
			t.Errorf("%s: got lane %d err %v, want lane %d", tc.name, lane, err, tc.lane)
			continue
		}
		if _, want := MinServersForSojourn(tc.lambdas[lane], mu, target, maxServers); want == nil || want.Error() != err.Error() {
			t.Errorf("%s: err %q, want the lane's own error %v", tc.name, err, want)
		}
	}
	if _, err := MinServersForSojournLanes([]float64{1, 2}, mu, target, maxServers, make([]MMm, 1)); err == nil {
		t.Error("want an error when out is shorter than lambdas")
	}
}

// FuzzMinServersForSojournLanes feeds arbitrary float bits into up to 8
// lanes and requires the lockstep call to agree with one-lane calls made
// in order: bit-equal queues up to the first failing lane, which it must
// name with that lane's own error. The bound is capped at a few thousand
// servers so every warm-up stays short.
func FuzzMinServersForSojournLanes(f *testing.F) {
	bits := math.Float64bits
	f.Add(bits(1.0/30), bits(75), uint16(4095), uint8(8),
		bits(0.3/30), bits(0), bits(3.0/30), bits(1), bits(40), bits(20), bits(1e12), bits(0.01))
	f.Add(bits(1), bits(1.0001), uint16(100), uint8(3),
		bits(99.999), bits(math.Nextafter(100, 0)), bits(100), bits(0), bits(0), bits(0), bits(0), bits(0))
	f.Add(bits(2.5), bits(0.4), uint16(7), uint8(2),
		bits(math.NaN()), bits(math.Inf(1)), bits(-1), bits(0), bits(0), bits(0), bits(0), bits(0))
	f.Fuzz(func(t *testing.T, muBits, targetBits uint64, bound uint16, n uint8,
		l0, l1, l2, l3, l4, l5, l6, l7 uint64) {
		mu, target := math.Float64frombits(muBits), math.Float64frombits(targetBits)
		maxServers := int(bound % 4096)
		laneBits := []uint64{l0, l1, l2, l3, l4, l5, l6, l7}
		lambdas := make([]float64, int(n)%(len(laneBits)+1))
		for i := range lambdas {
			lambdas[i] = math.Float64frombits(laneBits[i])
		}
		out := make([]MMm, len(lambdas))
		lane, err := MinServersForSojournLanes(lambdas, mu, target, maxServers, out)
		for i, lambda := range lambdas {
			want, wantErr := MinServersForSojourn(lambda, mu, target, maxServers)
			if wantErr != nil {
				if err == nil || lane != i || err.Error() != wantErr.Error() {
					t.Fatalf("lanes failed at %d with %v, want lane %d with %v", lane, err, i, wantErr)
				}
				return
			}
			if !sameQueue(out[i], want) {
				t.Fatalf("lane %d: got %+v, want %+v", i, out[i], want)
			}
		}
		if err != nil || lane != -1 {
			t.Fatalf("lanes failed at %d with %v, every one-lane call succeeds", lane, err)
		}
	})
}
