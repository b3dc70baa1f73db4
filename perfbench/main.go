// Command perfbench is the repository's benchmark. It runs one named
// workload as a closed loop (one simulated day in flight at a time; each
// untraced day in a child process of its own), checks every run's outputs,
// and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a seam-traced run (--trace 1) as
// the last line of standard output:
//
//	go run . --workload fluid-100m --seed 42 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the layer each one
// attributes.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 42
	// heldOutSeed is never used while tuning a change; a gain claimed on
	// other seeds must also hold here.
	heldOutSeed = 7
	// workers sizes the engines' and controllers' pools: the bench host has
	// two CPUs. The traced fluid runs add single-worker runs for the pool
	// speedup.
	workers = 2
)

// spansDir, under the working directory, receives the traced run's spans.
var spansDir = filepath.Join(".bench_build", "perfbench")

// Setup is timed in batches between the days, so that its median samples
// the same stretch of host time as the days do: after each day, repeats run
// for about setupShare of that day's wall time (at least one, at most
// setupBatch). After the last day, repeats go on until there are setupMin.
const (
	setupShare = 0.05
	setupBatch = 15
	setupMin   = 9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fluid-100m or geo-outage")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "wall time to measure for; runs stop before one would overrun it (at least one runs)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	day := fs.Bool("day", false, "run one untraced day and print its outcome as JSON (the --trace 0 runs start one such process per day)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := lookup(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *day {
		out, err := w.run(*seed, workers, nil)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(dayResult{out, peakRSSMB()})
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}

	host := fingerprint()
	var res result
	if *traced == 0 {
		res = b.endToEnd()
	} else {
		var spans []span
		res, spans = b.perLayer()
		if err := writeSpans(spansDir, w.name, *seed, host, res, spans); err != nil {
			return err
		}
	}
	hostLine, err := json.Marshal(host)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n%s\n", hostLine, out)
	return nil
}

// bench runs one workload at one seed and tallies its runs.
type bench struct {
	w      benchWorkload
	seed   int64
	budget time.Duration

	attempted, failed int
	first             *outcome // the reference every later run must equal
}

// do runs the workload once in this process (traced when tr is non-nil)
// and checks it. A run that errors or fails a check counts as failed and
// returns false.
func (b *bench) do(workers int, tr *tracer) (outcome, runtime.MemStats, bool) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := b.w.run(b.seed, workers, tr)
	runtime.ReadMemStats(&after)
	after.TotalAlloc -= before.TotalAlloc
	after.NumGC -= before.NumGC
	return out, after, b.tally(out, err, fmt.Sprintf("workers %d, traced %t", workers, tr != nil))
}

// dayResult is what a --day child process prints.
type dayResult struct {
	Outcome   outcome
	PeakRSSMB float64 // the child's peak resident set
}

// day runs one untraced day in a child process, so that every day starts
// from a fresh heap and has a peak resident set of its own, and checks it.
func (b *bench) day() (dayResult, bool) {
	var d dayResult
	exe, err := os.Executable()
	if err == nil {
		cmd := exec.Command(exe, "--workload", b.w.name, "--seed", strconv.FormatInt(b.seed, 10), "--day")
		cmd.Stderr = os.Stderr
		// The child must not outlive the benchmark if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		var stdout []byte
		if stdout, err = cmd.Output(); err == nil {
			err = json.Unmarshal(stdout, &d)
		}
	}
	return d, b.tally(d.Outcome, err, fmt.Sprintf("workers %d, own process, peak RSS %.1f MB", workers, d.PeakRSSMB))
}

// tally counts one run and checks it against the workload's rules and the
// first good run.
func (b *bench) tally(out outcome, err error, how string) bool {
	b.attempted++
	if err == nil {
		err = b.w.check(b.seed, out)
	}
	if err == nil && b.first != nil && (out.Quality != b.first.Quality || out.Bill != b.first.Bill) {
		err = fmt.Errorf("outputs differ between runs of one seed: quality %v vs %v, bill %v vs %v",
			out.Quality, b.first.Quality, out.Bill.TotalUSD(), b.first.Bill.TotalUSD())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d run %d failed: %v\n", b.w.name, b.seed, b.attempted, err)
		b.failed++
		return false
	}
	if b.first == nil {
		b.first = &out
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d run %d (%s): setup %.4f s, day %.4f s\n",
		b.w.name, b.seed, b.attempted, how, out.Setup.Seconds(), out.Run.Seconds())
	return true
}

// endToEnd runs untraced days, each in a child process and followed by a
// batch of setups timed in this process, until the budget is spent, and
// reports the user-visible metrics. An untimed setup comes first.
func (b *bench) endToEnd() result {
	var rates, setups, rss []float64
	start := time.Now()
	ok := b.setup(nil)
	for ok {
		began := time.Now()
		d, good := b.day()
		if !good {
			break
		}
		rates = append(rates, d.Outcome.Hours/d.Outcome.Run.Seconds())
		rss = append(rss, d.PeakRSSMB)
		batchEnd := time.Now().Add(time.Duration(setupShare * float64(time.Since(began))))
		for n := 0; ok && n < setupBatch && (n == 0 || time.Now().Before(batchEnd)); n++ {
			ok = b.setup(&setups)
		}
		if !b.another(start, began) {
			break
		}
	}
	for ok && len(setups) < setupMin {
		ok = b.setup(&setups)
	}
	res := b.result(ok)
	if len(rates) == 0 {
		return res
	}
	res.Metrics = map[string]metric{
		// The host's slow spells, when other tenants load it, only ever
		// make days slower, so the upper quartile of the days' rates is
		// moved less than their median by the spells a run happens to meet.
		"sim_hours_per_s": {percentile(rates, 0.75), "h/s"},
		"setup_s":         {median(setups), "s"},
		"peak_rss_mb":     {median(rss), "MB"},
		"quality":         {b.first.Quality, "fraction"},
		"bill_usd":        {b.first.Bill.TotalUSD(), "USD"},
	}
	return res
}

// setup times one setup from a collected heap and appends its seconds to
// times, when times is non-nil. A failed setup counts as a failed run.
func (b *bench) setup(times *[]float64) bool {
	runtime.GC()
	start := time.Now()
	err := b.w.setup(b.seed, workers)
	d := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s setup failed: %v\n", b.w.name, err)
		b.attempted++
		b.failed++
		return false
	}
	if times != nil {
		*times = append(*times, d.Seconds())
	}
	return true
}

// another reports whether one more round of runs, as long as the round
// that began at began, still ends within the budget counted from start.
func (b *bench) another(start, began time.Time) bool {
	return time.Since(start)+time.Since(began) <= b.budget
}

func (b *bench) result(ok bool) result {
	return result{
		Correct:   ok && b.failed == 0 && b.first != nil,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
}

// tracedRun is one traced day's wall time and its attribution.
type tracedRun struct {
	day    float64
	layers map[string]float64
	spans  []span
}

// perLayer alternates untraced and traced runs (plus, on the fluid
// workloads, single-worker runs for the pool speedup) until the budget is
// spent. It reports the layers of the median traced run, so that one run's
// self times are set against one run's wall time, and returns its spans.
func (b *bench) perLayer() (result, []span) {
	var plain, serial []float64
	var runs []tracedRun
	var alloc, gcs []float64
	fluid := strings.HasPrefix(b.w.name, "fluid-")
	ok := true
	for start := time.Now(); ok; {
		began := time.Now()
		out, mem, good := b.do(workers, nil)
		if !good {
			ok = false
			break
		}
		plain = append(plain, out.Run.Seconds())
		alloc = append(alloc, float64(mem.TotalAlloc)/1e6)
		gcs = append(gcs, float64(mem.NumGC))

		tr := newTracer()
		out, _, good = b.do(workers, tr)
		if !good {
			ok = false
			break
		}
		spans := tr.finish()
		runs = append(runs, tracedRun{out.Run.Seconds(), layerTimes(tr, spans), spans})

		if fluid {
			out, _, good = b.do(1, nil)
			if !good {
				ok = false
				break
			}
			serial = append(serial, out.Run.Seconds())
		}
		if !b.another(start, began) {
			break
		}
	}
	res := b.result(ok)
	if !res.Correct {
		return res, nil
	}
	slices.SortFunc(runs, func(x, y tracedRun) int { return cmp.Compare(x.day, y.day) })
	mid := runs[(len(runs)-1)/2]
	m := res.Metrics
	for _, k := range layerKeys {
		m[k.name] = metric{mid.layers[k.name], k.unit}
	}
	speedup := 0.0
	if fluid {
		speedup = median(serial) / median(plain)
	}
	bill := b.first.Bill
	m["fluid.pool_speedup"] = metric{speedup, "x"}
	m["cloud.interruptions"] = metric{float64(bill.Interruptions), "count"}
	m["cloud.spot_usd"] = metric{bill.SpotUSD, "USD"}
	m["cloud.transfer_usd"] = metric{bill.TransferUSD, "USD"}
	m["go.alloc_mb"] = metric{median(alloc), "MB"}
	m["go.gc_cycles"] = metric{median(gcs), "count"}
	m["trace.overhead"] = metric{mid.day/median(plain) - 1, "fraction"}
	return res, mid.spans
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// host identifies the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// writeSpans writes the median traced run's spans, with the host and the
// per-layer result, to dir/spans-<workload>-<seed>.json.
func writeSpans(dir, workload string, seed int64, h host, res result, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Host     host   `json:"host"`
		Result   result `json:"result"`
		Spans    []span `json:"spans"`
	}{workload, seed, h, res, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	return os.WriteFile(path, data, 0o644)
}
