package mathx

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrUnstable is returned when an M/M/m queue has offered load a = λ/µ ≥ m,
// i.e. no equilibrium exists.
var ErrUnstable = errors.New("mathx: queue unstable (offered load >= servers)")

// ErlangB returns the Erlang-B blocking probability B(m, a) for m servers
// and offered load a = λ/µ, computed with the standard numerically stable
// recurrence B(0)=1, B(k) = a·B(k−1) / (k + a·B(k−1)).
func ErlangB(m int, a float64) float64 {
	b := 1.0
	for k := 1; k <= m; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the Erlang-C delay probability C(m, a): the probability
// that an arriving job must wait in an M/M/m queue with m servers and
// offered load a = λ/µ. Requires a < m for a meaningful (finite-queue)
// answer; callers should check stability first.
func ErlangC(m int, a float64) float64 {
	if a <= 0 {
		return 0
	}
	mm := float64(m)
	if a >= mm {
		return 1
	}
	b := ErlangB(m, a)
	return mm * b / (mm - a*(1-b))
}

// MMm describes a stable M/M/m queue in equilibrium. Construct with NewMMm.
type MMm struct {
	Lambda  float64 // arrival rate λ (jobs per unit time)
	Mu      float64 // per-server service rate µ
	Servers int     // m

	offered float64 // a = λ/µ
	delayP  float64 // Erlang-C C(m, a)
}

// NewMMm validates parameters and returns the equilibrium description of an
// M/M/m queue. It returns ErrUnstable if λ/µ ≥ m.
func NewMMm(lambda, mu float64, m int) (MMm, error) {
	switch {
	case lambda < 0:
		return MMm{}, fmt.Errorf("mathx: negative arrival rate %v", lambda)
	case mu <= 0:
		return MMm{}, fmt.Errorf("mathx: non-positive service rate %v", mu)
	case m <= 0:
		return MMm{}, fmt.Errorf("mathx: non-positive server count %d", m)
	}
	a := lambda / mu
	if a >= float64(m) {
		return MMm{}, ErrUnstable
	}
	return MMm{
		Lambda:  lambda,
		Mu:      mu,
		Servers: m,
		offered: a,
		delayP:  ErlangC(m, a),
	}, nil
}

// OfferedLoad returns a = λ/µ.
func (q MMm) OfferedLoad() float64 { return q.offered }

// Utilization returns ρ = λ/(m·µ) ∈ [0, 1).
func (q MMm) Utilization() float64 { return q.offered / float64(q.Servers) }

// DelayProbability returns the Erlang-C probability that an arrival waits.
func (q MMm) DelayProbability() float64 { return q.delayP }

// MeanQueueLength returns E[L_q], the expected number of jobs waiting
// (excluding jobs in service).
func (q MMm) MeanQueueLength() float64 {
	if q.Lambda == 0 {
		return 0
	}
	return q.delayP * q.offered / (float64(q.Servers) - q.offered)
}

// MeanJobs returns E[n], the expected number of jobs in the system (waiting
// plus in service). This is Eqn. (3) of the paper in closed form:
// E[n] = a + C(m,a)·a/(m−a).
func (q MMm) MeanJobs() float64 {
	return q.offered + q.MeanQueueLength()
}

// MeanWait returns E[W_q], the expected waiting time before service starts.
func (q MMm) MeanWait() float64 {
	if q.Lambda == 0 {
		return 0
	}
	return q.MeanQueueLength() / q.Lambda
}

// MeanSojourn returns E[T], the expected total time in system (waiting plus
// service). By Little's law E[T] = E[n]/λ.
func (q MMm) MeanSojourn() float64 {
	if q.Lambda == 0 {
		return 1 / q.Mu
	}
	return q.MeanJobs() / q.Lambda
}

// StateProbability returns p(k), the equilibrium probability of exactly k
// jobs in the system (Eqn. (2) of the paper).
func (q MMm) StateProbability(k int) float64 {
	if k < 0 {
		return 0
	}
	p0 := q.emptyProbability()
	a := q.offered
	m := q.Servers
	if k <= m {
		// p0 · a^k / k!  computed incrementally to avoid overflow.
		p := p0
		for i := 1; i <= k; i++ {
			p *= a / float64(i)
		}
		return p
	}
	// p(m) · (a/m)^(k−m)
	pm := p0
	for i := 1; i <= m; i++ {
		pm *= a / float64(i)
	}
	return pm * math.Pow(a/float64(m), float64(k-m))
}

// emptyProbability returns p(0) using the standard M/M/m normalization.
func (q MMm) emptyProbability() float64 {
	a := q.offered
	m := q.Servers
	sum := 0.0
	term := 1.0 // a^k/k! for k = 0
	for k := 0; k < m; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	// term is now a^m/m!; add the waiting-tail mass a^m/m! · m/(m−a).
	sum += term * float64(m) / (float64(m) - a)
	return 1 / sum
}

// MinServersForSojourn returns the M/M/m queue with the smallest server
// count m such that the queue with rates (λ, µ) is stable and has mean
// sojourn time at most target. This is the paper's iterative sizing rule
// from Sec. IV-B: start at the smallest stable m and grow m until
// E[n] ≤ λ·T₀ (equivalently E[T] ≤ T₀ by Little's law). maxServers bounds
// the search; if the target is unreachable within the bound an error is
// returned.
//
// It is the one-lane call of MinServersForSojournLanes, whose doc
// explains why the returned queue is bit-identical to NewMMm(λ, µ, m).
func MinServersForSojourn(lambda, mu, target float64, maxServers int) (MMm, error) {
	lambdas := [1]float64{lambda}
	var out [1]MMm
	if _, err := MinServersForSojournLanes(lambdas[:], mu, target, maxServers, out[:]); err != nil {
		return MMm{}, err
	}
	return out[0], nil
}

// MinServersForSojournLanes sizes one queue per arrival rate in lambdas,
// all sharing µ, target and maxServers, and writes the queue sized for
// lambdas[i] to out[i]; out must be as long as lambdas. Every lane gets
// exactly the queue, or the error, that MinServersForSojourn gives it
// alone. On error, lane is the index of the first lane that fails, as a
// loop over the lanes in order would report it; on success it is -1.
//
// The search runs the Erlang-B recurrence once per lane: it warms B up
// to the first candidate, B(⌊a⌋), and then advances it one step per
// candidate, instead of rebuilding B(m) from k=1 for each m. Each step is
// the same float operation ErlangB performs, and each candidate is
// assembled with NewMMm's own expressions, so every returned queue is
// bit-identical to NewMMm(λ, µ, m).
//
// The warm-up is a chain of dependent divisions, O(a) long. Lanes are
// independent chains, so they warm up in lockstep: one step of every
// lane still warming, then the next step. Each lane still performs its
// own operations in its own order, so lockstep changes no float, but
// the divisions of different lanes overlap in the pipeline instead of
// each waiting on the one before it.
//
// Lanes are validated in order before any warm-up. A lane that fails
// validation (a non-finite input, λ < 0, µ ≤ 0, a target below 1/µ, or
// a ≥ maxServers) is never warmed up, so a huge offered load fails fast;
// only the lanes before it are sized, because one of them may fail
// first.
func MinServersForSojournLanes(lambdas []float64, mu, target float64, maxServers int, out []MMm) (lane int, err error) {
	if len(out) != len(lambdas) {
		return 0, fmt.Errorf("mathx: %d sizing outputs for %d lanes", len(out), len(lambdas))
	}
	valid, invalid := len(lambdas), error(nil)
	for i, lambda := range lambdas {
		if invalid = checkSizing(lambda, mu, target, maxServers); invalid != nil {
			valid = i
			break
		}
	}
	if i := sizeLanes(lambdas[:valid], mu, target, maxServers, out[:valid]); i >= 0 {
		return i, errNoServerCount(lambdas[i], mu, target, maxServers)
	}
	if invalid != nil {
		return valid, invalid
	}
	return -1, nil
}

// checkSizing reports why one lane cannot be sized at all, in the order
// the checks have always run; nil means the lane's search may start.
func checkSizing(lambda, mu, target float64, maxServers int) error {
	switch {
	case !isFinite(lambda) || !isFinite(mu) || !isFinite(target):
		return fmt.Errorf("mathx: non-finite sizing input λ=%v µ=%v target=%v", lambda, mu, target)
	case lambda < 0:
		return fmt.Errorf("mathx: negative arrival rate %v", lambda)
	case mu <= 0:
		return fmt.Errorf("mathx: non-positive service rate %v", mu)
	case target <= 0:
		return fmt.Errorf("mathx: non-positive sojourn target %v", target)
	case maxServers <= 0:
		return fmt.Errorf("mathx: non-positive server bound %d", maxServers)
	}
	if 1/mu > target {
		// Even with zero waiting the service time alone misses the target.
		return fmt.Errorf("mathx: service time 1/µ=%v exceeds target %v", 1/mu, target)
	}
	if lambda != 0 && lambda/mu >= float64(maxServers) {
		// The smallest stable m, ⌊a⌋+1, already exceeds the bound: fail
		// before the warm-up, which would cost O(a).
		return errNoServerCount(lambda, mu, target, maxServers)
	}
	return nil
}

// sizeLanes is the lockstep kernel of MinServersForSojournLanes over
// lanes that passed checkSizing. It returns the first lane whose target
// is unreachable within maxServers, or -1.
//
// Until the search, out holds each lane's state: offered is a, delayP
// the running Erlang-B value and Servers the lane's index in lambdas.
// Sorting by a descending makes the lanes still warming at step k a
// prefix of out (lane i warms while k ≤ ⌊aᵢ⌋, that is while aᵢ ≥ k);
// the index in Servers puts every lane back in place afterwards.
//
//cloudmedia:hotpath
func sizeLanes(lambdas []float64, mu, target float64, maxServers int, out []MMm) int {
	for i, lambda := range lambdas {
		out[i] = MMm{Lambda: lambda, Mu: mu, Servers: i, offered: lambda / mu, delayP: 1}
	}
	slices.SortFunc(out, byOfferedDesc)
	warming := len(out)
	for k := 1; ; k++ {
		kf := float64(k)
		for warming > 0 && out[warming-1].offered < kf {
			warming--
		}
		if warming == 0 {
			break
		}
		if warming == 1 {
			// The last lane's remaining steps form one dependent chain;
			// running it in registers keeps a store and a reload off
			// every step.
			a, b := out[0].offered, out[0].delayP
			for ; kf <= a; kf++ {
				b = a * b / (kf + a*b)
			}
			out[0].delayP = b
			break
		}
		for i := range out[:warming] {
			a, b := out[i].offered, out[i].delayP
			out[i].delayP = a * b / (kf + a*b) // B(k) from B(k−1), as in ErlangB
		}
	}
	for i := range out {
		for j := out[i].Servers; j != i; j = out[i].Servers {
			out[i], out[j] = out[j], out[i]
		}
	}
	for i := range out {
		if !searchLane(&out[i], target, maxServers) {
			return i
		}
	}
	return -1
}

func byOfferedDesc(x, y MMm) int { return cmp.Compare(y.offered, x.offered) }

// searchLane grows m from the smallest stable count, advancing the lane's
// warmed Erlang-B value B(⌊a⌋) one step per candidate, and replaces the
// lane's state with the first queue that meets target. It reports false
// if none within maxServers does.
//
//cloudmedia:hotpath
func searchLane(q *MMm, target float64, maxServers int) bool {
	if q.Lambda == 0 {
		// A single server serves the (nonexistent) load; sojourn is 1/µ.
		// This is NewMMm(0, µ, 1).
		*q = MMm{Lambda: 0, Mu: q.Mu, Servers: 1}
		return true
	}
	a, b := q.offered, q.delayP
	for m := int(math.Floor(a)) + 1; m <= maxServers; m++ {
		mm := float64(m)
		b = a * b / (mm + a*b) // B(m) from B(m−1), as in ErlangB
		if a >= mm {
			continue // unstable, as NewMMm would report
		}
		delayP := 0.0 // ErlangC(m, a)
		if a > 0 {
			delayP = mm * b / (mm - a*(1-b))
		}
		c := MMm{Lambda: q.Lambda, Mu: q.Mu, Servers: m, offered: a, delayP: delayP}
		if c.MeanSojourn() <= target {
			*q = c
			return true
		}
	}
	return false
}

func errNoServerCount(lambda, mu, target float64, maxServers int) error {
	return fmt.Errorf("mathx: no m ≤ %d meets sojourn target %v (λ=%v µ=%v)", maxServers, target, lambda, mu)
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
