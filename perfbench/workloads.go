package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"

	"ulmt/internal/core"
	"ulmt/internal/experiment"
	"ulmt/internal/workload"
)

// A bench is one workload set up and ready to serve requests. Every
// request does identical work.
type bench interface {
	// request runs one request, recording spans into sp when tracing
	// (sp is nil otherwise).
	request(sp *spans) (result, error)
	close()
}

// result is what one request produced.
type result struct {
	// digest identifies the request's outputs: the rendered report for
	// matrix, per-(app, config) Results for the others.
	digest string
	// ops is the simulated ops retired, the numerator of
	// sim_mops_per_s.
	ops uint64
	// counts are the per-layer counts read from the Results.
	counts counts
	// apps are the applications the request simulated, for the
	// traced run's footprint measurement.
	apps []string
	r    *experiment.Runner
}

// spec is one named workload: how to set it up and what its outputs must be.
type spec struct {
	name string
	// setupReps is how many times setup_s is measured; the median is
	// reported.
	setupReps int
	// fresh means every request needs its own setup (a cold runner);
	// that setup is not part of the request's time.
	fresh bool
	setup func(e *env, sp *spans) (bench, error)
	// pinned maps a seed to the digest its outputs must have.
	pinned map[uint64]string
}

// matrixWorkers is the -j ulmtsim defaults to on this benchmark's
// reference host (GOMAXPROCS = 2); fixed so the workload is the same
// work on every host.
const matrixWorkers = 2

var workloads = map[string]*spec{
	"matrix": {
		name: "matrix", setupReps: 101, fresh: true, setup: setupMatrix,
		pinned: map[uint64]string{
			1: "0fd9cdb554204e384f25fc52154779685bf3bbabef39e81344c3ff1572f0c797",
			2: "12b238b3d086e873110b8c1b7c33a7f684508a98e9c6449a00a9e09fee8fe9f4",
		},
	},
	"chase": {
		name: "chase", setupReps: 5,
		setup: roundSetup([]string{"Mcf", "MST", "Parser"}, experiment.CfgRepl),
		pinned: map[uint64]string{
			1: "97674eeaa769acf359d5b0eb68726ed6c59d2dd6466945959d2d3fe50d00e189",
			2: "283dc77fdb8fa5cd1c46c7b5a2920735f81b8020c52eac5c32979ec107a27c1e",
		},
	},
	"stream": {
		name: "stream", setupReps: 5,
		setup: roundSetup([]string{"CG", "FT", "Sparse"}, experiment.CfgConven4),
		pinned: map[uint64]string{
			1: "633df33179be522299a9cefac49e70ed79c7a8db98ce33f71051e5a6a08582f0",
			2: "7f8681279405445cdd85bac0093cad4cc8394f457a86e0683ebf2f4950454e40",
		},
	},
	"multicore": {
		name: "multicore", setupReps: 5, setup: setupMulticore,
		pinned: map[uint64]string{
			1: "7d91f07f1f1be6bec63c68c67a06d06a7e796e42f59c4ff3ef6c7247173bdc2a",
			2: "ea359956587bd99f0a9c7bcc52371c8a7f627d257dd0d60020fbe623f1b7b9cf",
		},
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// options are ulmtsim's defaults at small scale: -j 2, a 192 MiB
// retained-memory budget, fork on, fast path on, intra-j 1.
func options(seed uint64, apps []string) experiment.Options {
	return experiment.Options{
		Scale: workload.ScaleSmall, Seed: seed, Apps: apps,
		Jobs: matrixWorkers, IntraJobs: 1, MaxRetries: 2, MemBudget: 192 << 20,
	}
}

// prepare generates the op streams and sizes the correlation tables
// of apps: the work setup_s times outside matrix.
func prepare(r *experiment.Runner, apps []string, sp *spans) {
	for _, app := range apps {
		sp.do("workload.gen_s", func() { r.Ops(app) })
		sp.do("trace.misstrace_s", func() { r.MissTrace(app) })
		sp.do("table.sizing_s", func() { r.NumRows(app) })
	}
}

// matrixBench is one cold evaluation of the paper's matrix:
// `ulmtsim -exp all -scale small` with an empty run cache.
type matrixBench struct {
	r   *experiment.Runner
	dir string
}

func setupMatrix(e *env, _ *spans) (bench, error) {
	dir, err := os.MkdirTemp(e.dir, "matrix-cache-")
	if err != nil {
		return nil, err
	}
	opt := options(e.seed, nil)
	opt.CacheDir = dir
	if err := opt.Validate(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r := experiment.NewRunner(opt)
	c, err := experiment.OpenCache(dir, opt)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r.AttachCache(c)
	return &matrixBench{r: r, dir: dir}, nil
}

func (m *matrixBench) close() { os.RemoveAll(m.dir) }

func (m *matrixBench) request(sp *spans) (result, error) {
	r := m.r
	if sp != nil {
		// The traced pass splits the harness phases out ahead of the
		// matrix; untraced, they run inside execute and render.
		prepare(r, r.Apps(), sp)
		sp.do("prefetch.fig5_s", func() { r.Fig5() })
	}
	var keys []experiment.RunKey
	sp.do("experiment.plan_s", func() { keys = r.PlanRuns(experiment.AllOrder) })
	var err error
	sp.do("experiment.execute_s", func() {
		err = r.ExecuteAll(context.Background(), keys, matrixWorkers, nil)
	})
	if err != nil {
		return result{}, err
	}
	sum := sha256.New()
	sp.do("experiment.render_s", func() {
		for _, exp := range experiment.AllOrder {
			if err = r.Render(sum, exp); err != nil {
				return
			}
		}
	})
	if err != nil {
		return result{}, err
	}
	res := result{digest: fmt.Sprintf("%x", sum.Sum(nil)), apps: r.Apps(), r: r}
	for _, k := range keys {
		out := r.Run(k.App, k.Label)
		if err := checkOps(out, len(r.Ops(k.App))); err != nil {
			return result{}, fmt.Errorf("%s/%s: %w", k.App, k.Label, err)
		}
		res.ops += out.OpsRetired
		res.counts.addMachine(out)
	}
	// Forked runs share their leader's simulation; count the events
	// the matrix really fired.
	res.counts.events = r.EventsFired()
	res.counts.forked = r.ForkedRuns()
	res.counts.scratch = r.ScratchRuns()
	res.counts.cacheMisses = r.Cache().Misses()
	return res, nil
}

// roundBench runs each of its applications once under one
// configuration, each on a fresh core.System.
type roundBench struct {
	r     *experiment.Runner
	apps  []string
	label string
}

func roundSetup(apps []string, label string) func(*env, *spans) (bench, error) {
	return func(e *env, sp *spans) (bench, error) {
		opt := options(e.seed, apps)
		if err := opt.Validate(); err != nil {
			return nil, err
		}
		r := experiment.NewRunner(opt)
		prepare(r, apps, sp)
		return &roundBench{r: r, apps: apps, label: label}, nil
	}
}

func (b *roundBench) close() {}

func (b *roundBench) request(sp *spans) (result, error) {
	res := result{apps: b.apps, r: b.r}
	h := sha256.New()
	for _, app := range b.apps {
		ops := b.r.Ops(app)
		var s *core.System
		var err error
		sp.do("core.newsystem_s", func() { s, err = core.NewSystem(b.r.BuildConfig(app, b.label)) })
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", app, err)
		}
		var out core.Results
		sp.do("core.run_s", func() { out = s.Run(app, ops) })
		if err := checkOps(out, len(ops)); err != nil {
			return result{}, fmt.Errorf("%s/%s: %w", app, b.label, err)
		}
		writeResults(h, app+"/"+b.label, out)
		res.ops += out.OpsRetired
		res.counts.addMachine(out)
	}
	res.digest = fmt.Sprintf("%x", h.Sum(nil))
	return res, nil
}

// multicoreApps is the 4-core mix; multicoreShards the memory threads
// the shared correlation table is sharded over.
var multicoreApps = []string{"Mcf", "CG", "Parser", "Sparse"}

const multicoreShards = 2

// multicoreBench runs `-exp multicore -cores 4 -shards 2`'s pair of
// machines: the NoPref control and the shared-table prefetcher.
type multicoreBench struct{ r *experiment.Runner }

func setupMulticore(e *env, sp *spans) (bench, error) {
	opt := options(e.seed, multicoreApps)
	opt.Cores, opt.Shards = len(multicoreApps), multicoreShards
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	r := experiment.NewRunner(opt)
	prepare(r, multicoreApps, sp)
	return &multicoreBench{r: r}, nil
}

func (b *multicoreBench) close() {}

func (b *multicoreBench) request(sp *spans) (result, error) {
	res := result{apps: multicoreApps, r: b.r}
	h := sha256.New()
	for _, pref := range []bool{false, true} {
		var mr core.MulticoreResults
		var names []string
		// MulticoreMix builds the machine (core.NewMultiSystem) and
		// runs it; the span covers both.
		sp.do("core.run_s", func() { mr, names = b.r.MulticoreMix(len(multicoreApps), pref) })
		fmt.Fprintf(h, "machine prefetch=%v total=%d finish=%v bus=%+v transfers=%+v attrib=%+v\n",
			pref, mr.TotalCycles, mr.FinishAt, mr.Bus, mr.BusTransfers, mr.ShardAttrib)
		for i, out := range mr.Cores {
			if err := checkOps(out, len(b.r.Ops(names[i]))); err != nil {
				return result{}, fmt.Errorf("core %d (%s): %w", i, names[i], err)
			}
			writeResults(h, fmt.Sprintf("core%d/%s", i, names[i]), out)
			res.ops += out.OpsRetired
			res.counts.add(out)
		}
		res.counts.events += mr.EventsFired
		res.counts.busBusy += uint64(mr.Bus.BusyCycles)
		res.counts.cycles += uint64(mr.TotalCycles)
		res.counts.busTransfers += mr.BusTransfers.Total()
		for _, a := range mr.ShardAttrib {
			res.counts.shardCross += a.CrossEmits
		}
	}
	res.digest = fmt.Sprintf("%x", h.Sum(nil))
	return res, nil
}

func checkOps(out core.Results, want int) error {
	if out.OpsRetired != uint64(want) {
		return fmt.Errorf("retired %d ops of %d", out.OpsRetired, want)
	}
	return nil
}

// writeResults writes the simulated outcome of one run: every Results
// field the paper's exhibits read, named so that fields added to
// Results later do not change the digest. EventsFired is left out:
// it measures host-side event churn, which simulator optimizations
// legitimately change.
func writeResults(h hash.Hash, name string, r core.Results) {
	fmt.Fprintf(h, "%s cycles=%d exec=%d/%d/%d dmiss=%d preq=%d push=%d conv=%d ops=%d fp=%x\n",
		name, r.Cycles, r.Exec.Busy, r.Exec.UpToL2, r.Exec.BeyondL2,
		r.DemandMissesToMemory, r.PrefetchReqsToMemory, r.PushesToL2, r.ConvenIssued,
		r.OpsRetired, r.CacheFP)
	o := r.Outcomes
	fmt.Fprintf(h, " outcomes=%d/%d/%d/%d/%d ulmt=%d/%d/%d/%d/%d/%d/%d/%d/%d\n",
		o.Hits, o.DelayedHits, o.NonPrefMisses, o.Replaced, o.Redundant,
		r.ULMT.MissesProcessed, r.ULMT.MissesDropped, r.ULMT.ResponseBusy, r.ULMT.ResponseMem,
		r.ULMT.OccupancyBusy, r.ULMT.OccupancyMem, r.ULMT.Instructions, r.ULMT.MemAccesses, r.ULMT.CacheMisses)
	fmt.Fprintf(h, " bus=%d/%d dram=%d/%d/%d l1=%d/%d/%d l2=%d/%d/%d/%d queues=%d/%d/%d/%d/%d\n",
		r.Bus.BusyCycles, r.Bus.PrefetchCycles, r.DRAM.Accesses, r.DRAM.RowHits, r.DRAM.BankWaits,
		r.L1.Accesses, r.L1.Misses, r.L1.Evictions,
		r.L2.Accesses, r.L2.Misses, r.L2.PrefetchHits, r.L2.PrefetchEvictsUnused,
		r.FilterDropped, r.Q2Drops, r.Q3Drops, r.CrossMatchedDemand, r.CrossMatchedPush)
	if r.MissDistance != nil {
		b, _ := r.MissDistance.MarshalJSON() // the histogram's own exact codec
		fmt.Fprintf(h, " missdist=%s\n", strings.TrimSpace(string(b)))
	}
}
