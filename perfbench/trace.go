package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ulmt/internal/core"
	"ulmt/internal/mem"
	"ulmt/internal/workload"
)

// span is one timed call into the simulator's public API.
type span struct {
	Req    string  `json:"req"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a root
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spans keeps a traced pass's spans in memory until the run ends. A
// nil *spans records nothing, so untraced code paths pay one nil
// check per call.
type spans struct {
	t0   time.Time
	req  string
	list []span
	open []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a root span for request (or setup) id; every span until
// the matching end shares the id.
func (s *spans) begin(id string) {
	if s == nil {
		return
	}
	s.req = id
	s.push(id)
}

func (s *spans) end() {
	if s == nil {
		return
	}
	s.pop()
}

// do runs f inside a span called name.
func (s *spans) do(name string, f func()) {
	if s == nil {
		f()
		return
	}
	s.push(name)
	defer s.pop()
	f()
}

func (s *spans) push(name string) {
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	s.open = append(s.open, len(s.list))
	s.list = append(s.list, span{Req: s.req, Name: name, Parent: parent, Start: time.Since(s.t0).Seconds()})
}

func (s *spans) pop() {
	i := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	s.list[i].End = time.Since(s.t0).Seconds()
}

// perRequest returns the median, over the requests (or setups) that
// made at least one name span, of the time spent in name spans.
func (s *spans) perRequest(name string) float64 {
	sum := make(map[string]float64)
	var order []string
	for _, sp := range s.list {
		if sp.Name != name {
			continue
		}
		if _, ok := sum[sp.Req]; !ok {
			order = append(order, sp.Req)
		}
		sum[sp.Req] += sp.End - sp.Start
	}
	xs := make([]float64, 0, len(order))
	for _, r := range order {
		xs = append(xs, sum[r])
	}
	return median(xs)
}

func (s *spans) write(path string) error {
	b, err := json.MarshalIndent(s.list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// spanMetrics are the per-layer time metrics, each the name of the
// span that measures it.
var spanMetrics = []string{
	"workload.gen_s", "trace.misstrace_s", "table.sizing_s", "prefetch.fig5_s",
	"experiment.plan_s", "experiment.execute_s", "experiment.render_s",
	"core.newsystem_s", "core.run_s",
}

// tracedRun gives the per-layer metrics. Half the time runs untraced
// and half runs with spans and a CPU profile, so the report carries
// the tracing overhead too.
func tracedRun(w *spec, e *env, dur time.Duration) (report, error) {
	var rep report
	sp := newSpans()
	_, b, err := measureSetup(w, e, sp)
	if err != nil {
		return rep, err
	}
	defer b.close()
	wa, wf := warmUp(w, e, b)
	plain := runLoop(w, e, b, dur/2, nil)
	if w.fresh {
		if b, err = w.setup(e, nil); err != nil {
			return rep, fmt.Errorf("%s setup: %w", w.name, err)
		}
		defer b.close()
	}

	base := filepath.Join(e.dir, fmt.Sprintf("%s-seed%d", w.name, e.seed))
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return rep, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return rep, err
	}
	traced := runLoop(w, e, b, dur/2, sp)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return rep, err
	}
	if err := sp.write(base + ".spans.json"); err != nil {
		return rep, err
	}
	rep.attempted = wa + plain.attempted + traced.attempted
	rep.failed = wf + plain.failed + traced.failed

	for _, name := range spanMetrics {
		rep.set(name, sp.perRequest(name), "s")
	}
	traced.last.counts.set(&rep, traced.last.ops)
	rep.set("workload.footprint_vs_l2", footprint(traced.last), "ratio")
	rep.set("runtime.peak_heap_mib", float64(plain.peakHeap)/(1<<20), "MiB")
	rep.set("runtime.gc_cycles", float64(traced.gcCycles), "count")
	rep.set("runtime.gc_pause_s", traced.gcPause.Seconds(), "s")
	rep.set("bench.untraced_run_s_p50", median(plain.lat), "s")
	rep.set("bench.traced_run_s_p50", median(traced.lat), "s")
	rep.set("bench.untraced_mops_per_s", plain.mopsPerSec(), "Mops/s")
	rep.set("bench.traced_mops_per_s", traced.mopsPerSec(), "Mops/s")
	rep.set("bench.trace_overhead", div(median(traced.lat), median(plain.lat)), "ratio")

	shares, err := profileShares(base + ".cpu.pprof")
	if err != nil {
		return rep, err
	}
	var named float64
	for _, l := range layers {
		rep.set(l+".cpu_share", shares[l], "share")
		named += shares[l]
	}
	rep.set("profile.attributed_share", named, "share")
	rep.notes = append(rep.notes, fmt.Sprintf("spans and CPU profile written to %s.{spans.json,cpu.pprof}", base))
	return rep, nil
}

// footprint is the mean, over the request's applications, of the
// bytes of distinct L2 lines an application touches relative to the
// L2's capacity.
func footprint(res result) float64 {
	if res.r == nil || len(res.apps) == 0 {
		return 0
	}
	l2 := core.DefaultConfig().L2
	var sum float64
	for _, app := range res.apps {
		lines := make(map[mem.Line]struct{})
		for _, op := range res.r.Ops(app) {
			if op.Kind != workload.Compute {
				lines[mem.LineOf(op.Addr, l2.Line)] = struct{}{}
			}
		}
		sum += float64(len(lines)) * float64(l2.Line) / float64(l2.SizeBytes)
	}
	return sum / float64(len(res.apps))
}

// layers are the names CPU samples are attributed to: the simulator's
// packages under internal/, the Go runtime, the rest of the standard
// library, and the benchmark's own code.
var layers = []string{
	"sim", "cpu", "cache", "bus", "dram", "queue", "memproc", "table", "prefetch",
	"core", "mem", "experiment", "workload", "trace", "budget", "checkpoint",
	"fault", "stats", "report", "runtime", "stdlib", "bench",
}

// layerOf maps a profiled function's name to its layer by package
// path: ulmt/internal/<layer>/... is <layer>, the runtime (and the
// standard library's internal packages it is built from) is runtime,
// other dotless import paths are stdlib, and package main is the
// benchmark. Anything else is "" (unattributed).
func layerOf(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.") // compiler-generated equality
	pkg := fn
	// The package path ends at the first '.' after its last '/'; type
	// parameters and receivers, which may hold other paths, come later.
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	} else {
		return ""
	}
	switch {
	case strings.HasPrefix(pkg, "ulmt/internal/"):
		l, _, _ := strings.Cut(strings.TrimPrefix(pkg, "ulmt/internal/"), "/")
		for _, known := range layers {
			if l == known {
				return l
			}
		}
		return ""
	case pkg == "main" || strings.HasPrefix(pkg, "ulmt/perfbench"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		return "runtime"
	case pkg != "" && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		if strings.HasPrefix(pkg, "ulmt") {
			return "" // the root ulmt package and anything else of the module
		}
		return "stdlib"
	}
	return ""
}

// profileShares attributes a CPU profile's flat samples to layers
// with `go tool pprof -top` and returns each layer's share.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return sharesFromTop(out)
}

// sharesFromTop parses `pprof -top -unit=ms` text: after the header
// line, each row is "flat flat% sum% cum cum% function".
func sharesFromTop(top []byte) (map[string]float64, error) {
	byLayer := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(top))
	inRows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		byLayer[layerOf(strings.Join(f[5:], " "))] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof: no samples")
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer, nil
}
