package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ulmt/internal/fault"
	"ulmt/internal/sim"
	"ulmt/internal/workload"
)

// The multicore golden file pins the windowed schedule's full
// MulticoreResults — EventsFired included — for small 2- and 4-core
// machines, independently of the -intra-j differentials (which move
// together with any schedule change). It was recorded before the
// schedule's hot loop was reworked
// (go test ./internal/core -run TestMulticoreGolden -update-golden),
// and every change to how the schedule executes must reproduce it bit
// for bit. Regenerating it is only legitimate when the simulated
// machine model itself changes.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fingerprints")

const multicoreGoldenPath = "testdata/golden_multicore.json"

// multicoreGolden is one machine's fingerprint: headline counts for
// readable diffs plus a digest of every MulticoreResults field.
type multicoreGolden struct {
	EventsFired uint64 `json:"events_fired"`
	TotalCycles int64  `json:"total_cycles"`
	SHA256      string `json:"sha256"`
}

// goldenMachines builds the pinned machines: 2 and 4 cores running
// tiny-scale kernels, with private per-core tables, a 2-shard shared
// table, and a 2-shard shared table under the light fault plan.
func goldenMachines(t *testing.T) map[string]func() MulticoreConfig {
	apps := []string{"Mcf", "CG", "Parser", "Sparse"}
	streams := make([][]workload.Op, len(apps))
	for i, name := range apps {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = w.Generate(workload.ScaleTiny)
	}
	out := map[string]func() MulticoreConfig{}
	for _, n := range []int{2, 4} {
		s := streams[:n]
		out[fmt.Sprintf("%dcore/private", n)] = func() MulticoreConfig { return privateConfig(s) }
		out[fmt.Sprintf("%dcore/shared2", n)] = func() MulticoreConfig { return shardedConfig(s, 2, false) }
		out[fmt.Sprintf("%dcore/shared2-faults", n)] = func() MulticoreConfig {
			mc := shardedConfig(s, 2, false)
			mc.Base.Faults = fault.Light(7)
			return mc
		}
	}
	return out
}

// fingerprint digests every field of r. %+v reaches each nested
// value (the miss-distance histogram through its String method).
func fingerprint(r MulticoreResults) multicoreGolden {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return multicoreGolden{
		EventsFired: r.EventsFired,
		TotalCycles: int64(r.TotalCycles),
		SHA256:      hex.EncodeToString(sum[:]),
	}
}

// TestMulticoreGolden proves the windowed schedule reproduces the
// recorded multicore results bit for bit.
func TestMulticoreGolden(t *testing.T) {
	machines := goldenMachines(t)
	got := make(map[string]multicoreGolden, len(machines))
	for name, mk := range machines {
		got[name] = fingerprint(runMC(t, mk()))
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(multicoreGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(multicoreGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d machines)", multicoreGoldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(multicoreGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	var want map[string]multicoreGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(got) != len(want) {
		t.Errorf("machine set changed: got %d machines, golden has %d", len(got), len(want))
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s diverged from golden:\n got  %+v\n want %+v", name, got[name], want[name])
		}
	}

	// The reference event kernel must reproduce the same schedule.
	const heapCase = "4core/shared2"
	mc := machines[heapCase]()
	mc.Base.Kernel = sim.KernelHeap
	if g := fingerprint(runMC(t, mc)); g != want[heapCase] {
		t.Errorf("%s on the heap kernel diverged from golden:\n got  %+v\n want %+v", heapCase, g, want[heapCase])
	}
}
