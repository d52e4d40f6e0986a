// Command perfbench is the ulmt simulator's benchmark. It runs one
// named workload as a closed loop with a single client for a fixed
// number of seconds, checks every request's outputs, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics of a
// separately traced pass — one per line with its unit, followed by a
// single JSON object as the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload matrix|chase|stream|multicore \
//	    --seed N --seconds S --trace 0|1
//
// See README.md in this directory for why each workload exists and
// what every metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "page-mapping seed (becomes the simulator's Options.Seed)")
	seconds := fs.Int("seconds", 10, "how long the timed loop runs")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch caches, spans and the CPU profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	// ulmtsim's defaults: a 192 MiB retained-memory budget, which
	// pairs with a 50% GC target.
	debug.SetGCPercent(50)

	env := &env{seed: *seed, dir: *outDir, pinned: w.pinned[*seed]}
	dur := time.Duration(*seconds) * time.Second
	var rep report
	var err error
	if *traceFlag == 1 {
		rep, err = tracedRun(w, env, dur)
	} else {
		rep, err = timedRun(w, env, dur)
	}
	if err != nil {
		return err
	}
	if w.pinned[*seed] != "" {
		rep.notes = append(rep.notes, fmt.Sprintf("outputs digest %s, pinned for seed %d", env.pinned, *seed))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("outputs digest %s; none pinned for seed %d, so every request had to match the first", env.pinned, *seed))
	}
	return rep.print(stdout, w, env)
}

// env is what every workload is handed: the seed, where it may write,
// and the digest its outputs must match ("" when the seed has none
// pinned, in which case the first request's digest is pinned for the
// rest of the run).
type env struct {
	seed   uint64
	dir    string
	pinned string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's output.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string // human-readable context, printed before the metrics
}

func (r *report) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// print writes one line per metric, then the JSON result line.
func (r report) print(w io.Writer, wl *spec, e *env) error {
	fmt.Fprintf(w, "# workload %s, seed %d, GOMAXPROCS %d, NumCPU %d\n",
		wl.name, e.seed, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-32s %14.6g %s\n", "fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(w *spec, e *env, dur time.Duration) (report, error) {
	var rep report
	setup, b, err := measureSetup(w, e, nil)
	if err != nil {
		return rep, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("setup: %d reps, min %.4g s, max %.4g s", len(setup), slices.Min(setup), slices.Max(setup)))
	defer b.close()
	wa, wf := warmUp(w, e, b)
	l := runLoop(w, e, b, dur, nil)
	rep.attempted, rep.failed = wa+l.attempted, wf+l.failed
	p50 := median(l.lat)
	tail, pct := tailPercentile(l.lat)
	rep.set("setup_s", median(setup), "s")
	rep.set("run_s_p50", p50, "s")
	rep.set("run_s_tail", tail, "s")
	rep.set("sim_mops_per_s", l.mopsPerSec(), "Mops/s")
	rep.notes = append(rep.notes, fmt.Sprintf("%d requests; run_s_tail is p%d (the highest percentile with >= 10 samples beyond it; p50 when there are fewer than 20)", len(l.lat), pct),
		fmt.Sprintf("request latencies (s): %.3f", l.lat))
	if w.name == "matrix" {
		rep.notes = append(rep.notes, fmt.Sprintf("matrix_s (one cold plan -> execute -> render) = run_s_p50 = %.4f s", p50))
	}
	return rep, nil
}

// measureSetup runs the workload's setup w.setupReps times and
// returns the times and the last instance.
func measureSetup(w *spec, e *env, sp *spans) ([]float64, bench, error) {
	var times []float64
	var b bench
	for i := 0; i < w.setupReps; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC() // start every setup from the same heap state
		sp.begin(fmt.Sprintf("setup-%d", i))
		t := time.Now()
		var err error
		b, err = w.setup(e, sp)
		sp.end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times, b, nil
}

// loop is what one timed loop measured.
type loop struct {
	lat               []float64 // seconds per request
	ops               uint64    // simulated ops retired, summed over requests
	attempted, failed int
	last              result // outputs of the last correct request
	peakHeap          uint64
	gcCycles          uint32
	gcPause           time.Duration
}

// mopsPerSec is the simulated ops of one request over the median
// request time. Every request retires the same ops, so this is the
// loop's throughput with the median's robustness to a slow spell of
// the host, which a total over a sum of times lacks.
func (l loop) mopsPerSec() float64 {
	if len(l.lat) == 0 {
		return 0
	}
	return div(float64(l.ops)/float64(len(l.lat)), median(l.lat)) / 1e6
}

// div is a/b, or 0 when b is 0 (a loop whose every request failed).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// warmUp sends one checked, untimed request to a workload whose
// requests reuse one instance, so the timed loop does not start with
// the page faults and lazy set-up of the process's first request. It
// returns the attempted and failed counts. A workload whose every
// request is a cold start has nothing to warm.
func warmUp(w *spec, e *env, b bench) (attempted, failed int) {
	if w.fresh {
		return 0, 0
	}
	res, err := safeRequest(b, nil)
	if err == nil {
		err = e.check(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: warm-up request: %v\n", err)
		return 1, 1
	}
	return 1, 0
}

// runLoop sends requests one after another, always at least one, and
// checks each. It starts another only while that one, taking as long
// as the last, would end within dur, so a run does not overshoot its
// time by most of a request. For a workload whose every request needs
// a cold start, b is only the first request's instance; later ones
// set up afresh, untimed.
func runLoop(w *spec, e *env, b bench, dur time.Duration, sp *spans) loop {
	var l loop
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The loop's own runtime.GC calls are not the program's GC work.
	gc0, pause0 := ms.NumGC-ms.NumForcedGC, ms.PauseTotalNs
	hw := watchHeap()
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= dur; i++ {
		if w.fresh && i > 0 {
			var err error
			if b, err = w.setup(e, nil); err != nil {
				l.attempted++
				l.failed++
				fmt.Fprintf(os.Stderr, "perfbench: request %d: setup: %v\n", i, err)
				continue
			}
		}
		runtime.GC() // every request starts from the same heap state
		sp.begin(fmt.Sprintf("req-%d", i))
		t := time.Now()
		res, err := safeRequest(b, sp)
		last = time.Since(t)
		lat := last.Seconds()
		sp.end()
		if w.fresh && i > 0 {
			b.close()
		}
		l.attempted++
		if err == nil {
			err = e.check(res)
		}
		if err != nil {
			l.failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, err)
			continue
		}
		l.lat = append(l.lat, lat)
		l.ops += res.ops
		l.last = res
	}
	l.peakHeap = hw.stop()
	runtime.ReadMemStats(&ms)
	l.gcCycles, l.gcPause = ms.NumGC-ms.NumForcedGC-gc0, time.Duration(ms.PauseTotalNs-pause0)
	return l
}

// safeRequest turns a panic anywhere in the simulator into a failed
// request.
func safeRequest(b bench, sp *spans) (res result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return b.request(sp)
}

// check compares a request's outputs with the pinned digest. With no
// digest pinned for this seed, the first correct request's digest is
// pinned for the rest of the run, so every request must at least
// reproduce it.
func (e *env) check(res result) error {
	if e.pinned == "" {
		e.pinned = res.digest
		return nil
	}
	if res.digest != e.pinned {
		return fmt.Errorf("outputs digest %s, want %s", res.digest, e.pinned)
	}
	return nil
}
