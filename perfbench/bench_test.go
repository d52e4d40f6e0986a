package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"ulmt/internal/core"
	"ulmt/internal/experiment"
	"ulmt/internal/stats"
	"ulmt/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting matters
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantP   int
		wantVal float64
	}{
		{1, 50, 1},
		{19, 50, 10},  // no percentile has 10 samples beyond it: the median
		{20, 50, 10},  // the 10th smallest has exactly 10 beyond it
		{50, 80, 40},  // p81 is the 41st smallest, with only 9 beyond it
		{100, 90, 90}, // p90 is the 90th smallest, 10 beyond
		{1000, 99, 990},
	} {
		got, p := tailPercentile(seq(tc.n))
		if p != tc.wantP || got != tc.wantVal {
			t.Errorf("n=%d: got p%d = %v, want p%d = %v", tc.n, p, got, tc.wantP, tc.wantVal)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestMopsPerSecUsesMedian(t *testing.T) {
	// Three requests of 2M ops each; one slow spell of the host.
	l := loop{lat: []float64{1, 10, 1}, ops: 6e6}
	if got := l.mopsPerSec(); got != 2 {
		t.Errorf("mopsPerSec = %v, want 2 (2M ops over the 1 s median)", got)
	}
	if got := (loop{}).mopsPerSec(); got != 0 {
		t.Errorf("mopsPerSec with no requests = %v, want 0", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ulmt/internal/sim.(*Engine).Run": "sim",
		"ulmt/internal/experiment.(*memo[go.shape.string,go.shape.[]ulmt/internal/workload.Op]).get": "experiment",
		"ulmt/internal/table.learn[go.shape.*uint8]":                                                 "table",
		"ulmt/internal/core.(*System).Fire.func1":                                                    "core",
		"type:.eq.ulmt/internal/sim.Event":                                                           "sim",
		"runtime.mallocgc":                                                                           "runtime",
		"runtime/internal/syscall.Syscall6":                                                          "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                                               "runtime",
		"crypto/sha256.block":                                                                        "stdlib",
		"sync.(*Mutex).Lock":                                                                         "stdlib",
		"main.runLoop":                                                                               "bench",
		"ulmt.MustSystem":                                                                            "",
		"ulmt/internal/nosuchlayer.F":                                                                "",
		"github.com/x/y.F":                                                                           "",
		"0x45ab12":                                                                                   "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSharesFromTop(t *testing.T) {
	top := []byte(`File: perfbench
Type: cpu
Duration: 10s, Total samples = 1000ms (10.00%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     500ms 50.00% 50.00%      600ms 60.00%  ulmt/internal/sim.(*Engine).Run
     250ms 25.00% 75.00%      250ms 25.00%  runtime.mallocgc
     200ms 20.00% 95.00%      200ms 20.00%  ulmt/internal/table.learn[go.shape.struct { A int }]
      50ms  5.00%   100%       50ms  5.00%  0x45ab12
`)
	got, err := sharesFromTop(top)
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range map[string]float64{"sim": 0.5, "runtime": 0.25, "table": 0.2, "": 0.05} {
		if math.Abs(got[l]-want) > 1e-12 {
			t.Errorf("share[%q] = %v, want %v", l, got[l], want)
		}
	}
	if _, err := sharesFromTop([]byte("no rows\n")); err == nil {
		t.Error("a profile without samples parsed without error")
	}
}

// tinyRun simulates one small application and returns its Results.
func tinyRun(t *testing.T) core.Results {
	t.Helper()
	r := experiment.NewRunner(experiment.Options{Scale: workload.ScaleTiny, Seed: 1, Apps: []string{"FT"}, Jobs: 1})
	s, err := core.NewSystem(r.BuildConfig("FT", experiment.CfgRepl))
	if err != nil {
		t.Fatal(err)
	}
	out := s.Run("FT", r.Ops("FT"))
	if err := checkOps(out, len(r.Ops("FT"))); err != nil {
		t.Fatal(err)
	}
	return out
}

func cloneHistogram(t *testing.T, h *stats.Histogram) *stats.Histogram {
	t.Helper()
	b, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c := new(stats.Histogram)
	if err := c.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	return c
}

func digestOf(r core.Results) string {
	h := sha256.New()
	writeResults(h, "FT/Repl", r)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestDigestCoversResults(t *testing.T) {
	out := tinyRun(t)
	want := digestOf(out)
	for name, perturb := range map[string]func(*core.Results){
		"Cycles":       func(r *core.Results) { r.Cycles++ },
		"L2.Misses":    func(r *core.Results) { r.L2.Misses++ },
		"PushesToL2":   func(r *core.Results) { r.PushesToL2++ },
		"Outcomes.Hit": func(r *core.Results) { r.Outcomes.Hits++ },
		"ULMT":         func(r *core.Results) { r.ULMT.Instructions++ },
		"DRAM":         func(r *core.Results) { r.DRAM.RowHits++ },
		"CacheFP":      func(r *core.Results) { r.CacheFP ^= 1 },
		"OpsRetired":   func(r *core.Results) { r.OpsRetired-- },
		"MissDistance": func(r *core.Results) { r.MissDistance.Add(1) },
	} {
		p := out
		p.MissDistance = cloneHistogram(t, out.MissDistance)
		perturb(&p)
		if digestOf(p) == want {
			t.Errorf("perturbing %s left the digest unchanged", name)
		}
	}
	// Event churn is host-side; simulator optimizations change it.
	p := out
	p.EventsFired++
	if digestOf(p) != want {
		t.Error("EventsFired changed the digest")
	}
	if err := checkOps(out, int(out.OpsRetired)+1); err == nil {
		t.Error("a run that retired too few ops passed checkOps")
	}
}

// fakeBench serves canned requests: the first returns good, later ones
// return bad (or fail with err, or panic).
type fakeBench struct {
	n         int
	good, bad result
	err       error
	panics    bool
}

func (f *fakeBench) request(*spans) (result, error) {
	f.n++
	time.Sleep(time.Millisecond)
	if f.n == 1 {
		return f.good, nil
	}
	if f.panics {
		panic("simulator bug")
	}
	return f.bad, f.err
}

func (f *fakeBench) close() {}

func TestFailuresAreCounted(t *testing.T) {
	out := tinyRun(t)
	good := result{digest: digestOf(out), ops: out.OpsRetired}
	p := out
	p.L2.Misses++
	bad := result{digest: digestOf(p), ops: p.OpsRetired}
	w := &spec{name: "fake"}
	for name, tc := range map[string]struct {
		pinned string
		f      *fakeBench
	}{
		"perturbed Results, pinned":   {good.digest, &fakeBench{good: good, bad: bad}},
		"perturbed Results, unpinned": {"", &fakeBench{good: good, bad: bad}},
		"failed run":                  {good.digest, &fakeBench{good: good, err: errors.New("run failed")}},
		"panic":                       {good.digest, &fakeBench{good: good, panics: true}},
	} {
		l := runLoop(w, &env{pinned: tc.pinned}, tc.f, 200*time.Millisecond, nil)
		if l.attempted < 2 || l.failed != l.attempted-1 || len(l.lat) != 1 {
			t.Errorf("%s: attempted %d, failed %d, %d latencies; want every request after the first failed",
				name, l.attempted, l.failed, len(l.lat))
		}
		if l.ops != good.ops {
			t.Errorf("%s: counted %d ops, want only the good request's %d", name, l.ops, good.ops)
		}
	}
}

func TestWarmUpIsChecked(t *testing.T) {
	out := tinyRun(t)
	good := result{digest: digestOf(out), ops: out.OpsRetired}
	w := &spec{name: "fake"}
	if a, f := warmUp(w, &env{pinned: good.digest}, &fakeBench{good: good}); a != 1 || f != 0 {
		t.Errorf("good warm-up: attempted %d, failed %d; want 1, 0", a, f)
	}
	if a, f := warmUp(w, &env{pinned: "other"}, &fakeBench{good: good}); a != 1 || f != 1 {
		t.Errorf("warm-up with a wrong digest: attempted %d, failed %d; want 1, 1", a, f)
	}
	if a, f := warmUp(&spec{name: "fake", fresh: true}, &env{}, nil); a != 0 || f != 0 {
		t.Errorf("cold-start workload: attempted %d, failed %d; want no warm-up", a, f)
	}
}
