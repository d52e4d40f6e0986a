package experiment

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ulmt/internal/core"
	"ulmt/internal/workload"
)

func resumeOptions() Options {
	return Options{Scale: workload.ScaleTiny, Apps: []string{"Mcf"}, Seed: 1}
}

// cachedRunner builds a runner for the options over a fresh cache
// directory.
func cachedRunner(t *testing.T, opt Options) (*Runner, *Cache) {
	t.Helper()
	c := openTestCache(t, t.TempDir(), opt)
	r := NewRunner(opt)
	r.AttachCache(c)
	return r, c
}

// TestSweepAliasIdentity proves the sweep's identity aliases cost no
// additional simulation under a fork plan yet report under their own
// labels. That they build the Repl machine is TestAliasSoundAndComplete's
// job.
func TestSweepAliasIdentity(t *testing.T) {
	r := NewRunner(resumeOptions())
	aliases := []string{SweepLevelsLabel(3), SweepRowsLabel("*1")}
	keys := []RunKey{{App: "Mcf", Label: CfgRepl}}
	for _, label := range aliases {
		keys = append(keys, RunKey{App: "Mcf", Label: label})
	}
	if err := r.ExecuteAll(nil, keys, 2, nil); err != nil {
		t.Fatalf("ExecuteAll: %v", err)
	}
	res := r.Run("Mcf", CfgRepl)
	if n := r.RunsComputed(); n != 1 {
		t.Fatalf("computed %d runs, want 1", n)
	}
	if n := r.ForkedRuns(); n != 2 {
		t.Fatalf("forked %d runs, want 2", n)
	}
	for _, label := range aliases {
		got := r.Run("Mcf", label)
		if got.Label != label {
			t.Errorf("aliased run label = %q, want %q", got.Label, label)
		}
		got.Label = res.Label
		if !reflect.DeepEqual(got, res) {
			t.Errorf("aliased run %s diverges from %s", label, CfgRepl)
		}
	}
	if n := r.RunsComputed(); n != 1 {
		t.Errorf("aliased labels re-simulated: computed %d runs, want 1", n)
	}
}

// TestCacheResultRoundTrip proves cached results reload exactly —
// every field, including the histogram and float derivatives — so a
// warm or continued invocation renders byte-identical reports.
func TestCacheResultRoundTrip(t *testing.T) {
	opt := resumeOptions()
	r := NewRunner(opt)
	c := openTestCache(t, t.TempDir(), opt)
	k := RunKey{App: "Mcf", Label: CfgRepl}
	res := r.Run(k.App, k.Label)
	if res.MissDistance == nil || res.MissDistance.Total() == 0 {
		t.Fatal("run recorded no latency histogram; round trip is vacuous")
	}
	c.SaveRun(k, res)
	got, ok := c.LoadRun(k)
	if !ok {
		t.Fatal("LoadRun missed a just-saved entry")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("cached result round-trip diverges:\n got %+v\nwant %+v", got, res)
	}
}

// midFlightCheckpoint simulates a SIGINT'd run: it stops src's
// simulation of the key at a mid-run quiescent point and writes the
// machine checkpoint where c expects the key's checkpoint, stamped
// for the current behavior version.
func midFlightCheckpoint(t *testing.T, src *Runner, c *Cache, k RunKey, want core.Results) {
	t.Helper()
	sys, err := core.NewSystem(src.BuildConfig(k.App, k.Label))
	if err != nil {
		t.Fatal(err)
	}
	ctl := &core.RunControl{CheckpointAfterEvents: want.EventsFired / 2}
	if _, out := sys.RunControlled(k.App, src.Ops(k.App), ctl); out != core.RunCheckpointed {
		t.Skipf("no quiescent point before completion (outcome %v)", out)
	}
	if err := c.writeCheckpoint(k, sys); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFromMidFlightCheckpoint is the kill-and-resume oracle at
// the experiment level: a run interrupted at a mid-flight checkpoint
// and continued by a fresh runner over the same cache directory — no
// resume option — reports results identical to the uninterrupted run,
// caches them, and cleans up the consumed checkpoint.
func TestResumeFromMidFlightCheckpoint(t *testing.T) {
	opt := resumeOptions()
	want := NewRunner(opt).Run("Mcf", CfgRepl)

	r, c := cachedRunner(t, opt)
	k := RunKey{App: "Mcf", Label: CfgRepl}
	midFlightCheckpoint(t, r, c, k, want)

	got := r.Run(k.App, k.Label)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run diverges from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
	if c.hasCheckpoint(k) {
		t.Error("consumed checkpoint not removed")
	}
	if _, ok := c.LoadRun(k); !ok {
		t.Error("completed resumed run not cached")
	}
}

// TestResumeDiscardsCorruptCheckpoint proves a damaged checkpoint
// cannot wedge recovery: it is discarded and the run starts over,
// still producing correct results.
func TestResumeDiscardsCorruptCheckpoint(t *testing.T) {
	opt := resumeOptions()
	want := NewRunner(opt).Run("Mcf", CfgRepl)

	r, c := cachedRunner(t, opt)
	k := RunKey{App: "Mcf", Label: CfgRepl}
	if err := os.MkdirAll(filepath.Dir(c.checkpointPath(k)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.checkpointPath(k), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := r.Run(k.App, k.Label)
	if !reflect.DeepEqual(got, want) {
		t.Error("recovery run after corrupt checkpoint diverges")
	}
	if c.hasCheckpoint(k) {
		t.Error("corrupt checkpoint left in place")
	}
}

// TestCheckpointStaleVersion pins the checkpoint side of the
// behavior-version contract: a checkpoint written under another
// CacheBehaviorVersion is refused, deleted, and the run restarts from
// cycle 0. The planted checkpoint comes from a -fastpath=off machine,
// whose continuation reports the same simulated results but a
// different EventsFired, so the test can tell a restore (same
// version, the control) from a restart (bumped version).
func TestCheckpointStaleVersion(t *testing.T) {
	opt := resumeOptions()
	want := NewRunner(opt).Run("Mcf", CfgRepl)
	k := RunKey{App: "Mcf", Label: CfgRepl}
	srcOpt := opt
	srcOpt.NoFastPath = true
	src := NewRunner(srcOpt)

	t.Run("SameVersionRestores", func(t *testing.T) {
		r, c := cachedRunner(t, opt)
		midFlightCheckpoint(t, src, c, k, want)
		got := r.Run(k.App, k.Label)
		if got.EventsFired == want.EventsFired {
			t.Fatal("checkpoint not restored: event count matches a from-scratch run")
		}
		got.EventsFired = want.EventsFired
		if !reflect.DeepEqual(got, want) {
			t.Errorf("restored run diverges beyond its event count:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("BumpedVersionRestarts", func(t *testing.T) {
		r, c := cachedRunner(t, opt)
		midFlightCheckpoint(t, src, c, k, want)
		cacheVersion++
		defer func() { cacheVersion-- }()
		got := r.Run(k.App, k.Label)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run with a stale checkpoint diverges from a clean run (checkpoint restored?):\n got %+v\nwant %+v", got, want)
		}
		if n := r.RunsComputed(); n != 1 {
			t.Errorf("computed %d runs, want 1", n)
		}
		if c.hasCheckpoint(k) {
			t.Error("stale checkpoint left in place")
		}
	})
}

// TestSelfHealRetry injects a panic into a run and requires the runner
// to fail it without retrying — a deterministic simulation would panic
// again — and to report the panic through ExecuteAll's error, not
// panic or hide it.
func TestSelfHealRetry(t *testing.T) {
	opt := resumeOptions()
	opt.MaxRetries = 2
	r := NewRunner(opt)
	r.testHook = func(k RunKey) { panic("injected fault") }
	err := r.ExecuteAll(nil, []RunKey{{App: "Mcf", Label: CfgNoPref}}, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("ExecuteAll error = %v, want the injected panic", err)
	}
	if n := r.Retried(); n != 0 {
		t.Errorf("retried = %d, want 0", n)
	}
	if n := r.Failed(); n != 1 {
		t.Errorf("failed = %d, want 1", n)
	}
}

// TestExecuteAllInterrupt cancels the context and requires ExecuteAll
// to stop and report the interruption.
func TestExecuteAllInterrupt(t *testing.T) {
	opt := resumeOptions()
	r := NewRunner(opt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := r.ExecuteAll(ctx, r.PlanRuns([]string{"fig7"}), 2, nil)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("ExecuteAll after cancel = %v, want interrupted", err)
	}
	if !r.Interrupted() {
		t.Error("runner not marked interrupted")
	}
}

// TestWatchdogTimeout aborts a run past Options.RunTimeout, retries
// it within the retry budget, and reports it failed once the budget
// is spent.
func TestWatchdogTimeout(t *testing.T) {
	opt := resumeOptions()
	opt.RunTimeout = time.Nanosecond
	opt.MaxRetries = 1
	r := NewRunner(opt)
	err := r.ExecuteAll(nil, []RunKey{{App: "Mcf", Label: CfgNoPref}}, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		// A machine fast enough to finish the run before a 1ns timer
		// fires would legitimately pass; don't fail on that.
		if err != nil {
			t.Fatalf("ExecuteAll error = %v, want watchdog", err)
		}
		t.Skip("run finished before the watchdog fired")
	}
	if n := r.Retried(); n != 1 {
		t.Errorf("retried = %d, want 1", n)
	}
	if n := r.Failed(); n != 1 {
		t.Errorf("failed = %d, want 1", n)
	}
}
