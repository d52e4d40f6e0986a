package experiment

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ulmt/internal/workload"
)

func multicoreOptions(cores, shards int) Options {
	return Options{
		Scale:  workload.ScaleTiny,
		Apps:   []string{"Mcf", "CG"},
		Seed:   1,
		Jobs:   1,
		Cores:  cores,
		Shards: shards,
	}
}

// TestMulticoreRenderDeterministic pins the multicore report: two
// fresh Runners must produce byte-identical output, in both the
// private-ULMT and sharded modes.
func TestMulticoreRenderDeterministic(t *testing.T) {
	for _, shards := range []int{0, 2} {
		render := func() []byte {
			var buf bytes.Buffer
			r := NewRunner(multicoreOptions(2, shards))
			if err := r.Render(&buf, "multicore"); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			return buf.Bytes()
		}
		a, b := render(), render()
		if !bytes.Equal(a, b) {
			t.Errorf("shards=%d: multicore report not deterministic", shards)
		}
		if !bytes.Contains(a, []byte("Multicore scale-out: 2 cores")) {
			t.Errorf("shards=%d: report missing the 2-core table:\n%s", shards, a)
		}
	}
}

// TestMulticoreMixShapes checks the mix builder cycles applications
// across cores and honors both prefetch modes.
func TestMulticoreMixShapes(t *testing.T) {
	r := NewRunner(multicoreOptions(4, 0))
	res, names := r.MulticoreMix(4, true)
	if want := []string{"Mcf", "CG", "Mcf", "CG"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("mix cycled as %v, want %v", names, want)
	}
	if len(res.Cores) != 4 || len(res.FinishAt) != 4 {
		t.Fatalf("got %d core results, %d finish times", len(res.Cores), len(res.FinishAt))
	}
	for i, r := range res.Cores {
		if r.OpsRetired == 0 {
			t.Errorf("core %d retired nothing", i)
		}
	}
	if res.ULMT.MissesProcessed == 0 {
		t.Error("private ULMTs observed no misses")
	}

	rs := NewRunner(multicoreOptions(2, 2))
	sres, _ := rs.MulticoreMix(2, true)
	if len(sres.ShardULMT) != 2 {
		t.Fatalf("sharded run reported %d shard stats, want 2", len(sres.ShardULMT))
	}
	if sres.ULMT.MissesProcessed == 0 {
		t.Error("sharded ULMT observed no misses")
	}
}

// TestMulticoreCacheWarm proves the multicore machines are served
// from -cache-dir: a second invocation into the same directory
// simulates nothing and renders identical bytes — including at
// another -intra-j, which the cache key leaves out — and a cached
// MulticoreResults reloads DeepEqual to the simulated one, in both
// the private-ULMT and sharded modes.
func TestMulticoreCacheWarm(t *testing.T) {
	for _, shards := range []int{0, 2} {
		dir := t.TempDir()
		render := func(intraJ int) ([]byte, *Runner) {
			opt := multicoreOptions(2, shards)
			opt.IntraJobs = intraJ
			r := NewRunner(opt)
			r.AttachCache(openTestCache(t, dir, opt))
			var buf bytes.Buffer
			if err := r.Render(&buf, "multicore"); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			return buf.Bytes(), r
		}
		cold, rc := render(1)
		if rc.ScratchRuns() != 2 {
			t.Errorf("shards=%d: cold run simulated %d machines, want 2", shards, rc.ScratchRuns())
		}
		warm, rw := render(2)
		if rw.ScratchRuns() != 0 {
			t.Errorf("shards=%d: warm run simulated %d machines, want 0", shards, rw.ScratchRuns())
		}
		if rw.Cache().Hits() != 2 {
			t.Errorf("shards=%d: warm run had %d cache hits, want 2", shards, rw.Cache().Hits())
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("shards=%d: warm multicore report differs from cold", shards)
		}

		for _, pref := range []bool{false, true} {
			want, names := NewRunner(multicoreOptions(2, shards)).MulticoreMix(2, pref)
			got, ok := rw.Cache().loadMulticore(multicoreRef(names, shards, pref))
			if !ok {
				t.Fatalf("shards=%d prefetch=%t: no cached machine", shards, pref)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d prefetch=%t: cached results differ:\n got %+v\nwant %+v", shards, pref, got, want)
			}
		}
	}
}
