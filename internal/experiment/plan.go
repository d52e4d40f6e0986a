package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunKey names one simulation of the experiment matrix: an
// application under a labeled configuration.
type RunKey struct {
	App   string
	Label string
}

// ExperimentRuns declares the full set of simulations the named
// experiment reads, in rendering order. Experiments that only consume
// functional traces or structural measurements (table1-table4, fig5)
// declare no runs. The renderers read results exclusively through
// Run, so executing these keys first means rendering touches only
// completed results — TestPlanCoversRender enforces that.
func (r *Runner) ExperimentRuns(exp string) []RunKey {
	matrix := func(apps []string, labels []string) []RunKey {
		out := make([]RunKey, 0, len(apps)*len(labels))
		for _, app := range apps {
			for _, label := range labels {
				out = append(out, RunKey{App: app, Label: label})
			}
		}
		return out
	}
	apps := r.opt.apps()
	switch exp {
	case "fig6":
		return matrix(apps, []string{CfgNoPref})
	case "fig7":
		return matrix(apps, Fig7Configs)
	case "fig8":
		return matrix(apps, Fig8Configs)
	case "fig9":
		return matrix(apps, Fig9Configs)
	case "fig10":
		return matrix(apps, Fig10Configs)
	case "fig11":
		return matrix(apps, Fig11Configs)
	case "table5":
		var present []string
		for _, c := range customizations {
			if containsStr(apps, c.app) {
				present = append(present, c.app)
			}
		}
		return matrix(present, []string{CfgNoPref, CfgConvenRepl, CfgCustom})
	case "ablation":
		return matrix([]string{AblationApp},
			append([]string{CfgNoPref, CfgRepl}, AblationConfigs...))
	case "sweep":
		// CfgRepl is declared explicitly: it is the sweep's identity
		// point (Sweep/NumLevels=3 and Sweep/NumRows*1 build exactly
		// that machine), so those two labels alias its results
		// (fork.go).
		return matrix(SweepApps, append([]string{CfgNoPref, CfgRepl}, SweepConfigs()...))
	case "faults":
		return matrix(apps, []string{CfgNoPref, CfgRepl})
	}
	return nil
}

// PlanRuns unions the run sets of several experiments, deduplicated
// in first-appearance order.
func (r *Runner) PlanRuns(exps []string) []RunKey {
	seen := make(map[RunKey]bool)
	var out []RunKey
	for _, exp := range exps {
		for _, k := range r.ExperimentRuns(exp) {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// buildDAG derives the dependency graph of a planned key set from its
// identity aliases: every planned alias is blocked by its leader
// (fork.go's leader table), every other key (leaders included) is
// free. An alias that dispatches only after its leader's outcome
// resolves never burns a worker slot blocking on the leader memo.
func (r *Runner) buildDAG(keys []RunKey) (blockedBy map[RunKey]int, dependents map[RunKey][]RunKey) {
	blockedBy = make(map[RunKey]int)
	dependents = make(map[RunKey][]RunKey)
	// planFork only records aliases whose leader is in the key set,
	// so every edge here stays inside the planned keys.
	for _, k := range keys {
		leader, ok := r.aliases[k]
		if !ok {
			continue
		}
		blockedBy[k]++
		dependents[leader] = append(dependents[leader], k)
	}
	return blockedBy, dependents
}

// ExecuteAll runs every key on a bounded worker pool of the given
// size (<=0 means GOMAXPROCS) and returns when all are complete.
// Because runs memoize with single-flight semantics, keys that share
// op streams, miss traces or sizing compute them once, an identity
// alias reuses its leader's simulation, and a key already cached
// costs nothing. onDone, if non-nil, is called after each completed
// run with (completed, total); it may be called from many goroutines
// at once and must synchronize itself.
//
// Scheduling is an explicit dependency DAG, not a flat queue:
// identity aliases are blocked by their leader and dispatch only once
// the leader's outcome is published, while every other run fans
// out across the workers from the start. A leader always completes
// its node — even by memoizing an error — so aliases always unblock
// and the dispatcher cannot deadlock; an alias whose leader failed
// simply falls back to a scratch run.
//
// Cancelling ctx interrupts the matrix: in-flight runs checkpoint (if
// a cache is attached and they support it) or abort, queued keys are
// skipped (each still flows through the DAG so accounting completes),
// and ExecuteAll returns the context's error once everything has
// stopped — no run is killed mid-write. Runs that exhaust their retry
// budget don't stop the matrix; they are reported in the returned
// error after all keys have been visited.
//
// Results are byte-identical to running the keys serially: every
// simulation is an isolated System whose output is a pure function of
// (Options, app, label), so only scheduling order differs — see
// TestParallelEquivalence and TestCacheWarmEquivalence.
func (r *Runner) ExecuteAll(ctx context.Context, keys []RunKey, workers int, onDone func(completed, total int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	if len(keys) == 0 {
		return nil
	}
	// Derive the identity aliases of this run set and their
	// dependency graph (fork.go / buildDAG above).
	r.planFork(keys)
	blockedBy, dependents := r.buildDAG(keys)

	// Fan the context's cancellation out to the in-flight runs.
	cancelDone := make(chan struct{})
	cancelStopped := make(chan struct{})
	go func() {
		defer close(cancelStopped)
		select {
		case <-ctx.Done():
			r.Interrupt()
		case <-cancelDone:
		}
	}()

	var done atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var nFailed int
	work := make(chan RunKey)
	finished := make(chan RunKey)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				if !r.interrupted.Load() {
					if out := r.outcome(k); out.err != nil && !errors.Is(out.err, errInterrupted) {
						errMu.Lock()
						nFailed++
						if firstErr == nil {
							firstErr = out.err
						}
						errMu.Unlock()
					}
				}
				n := int(done.Add(1))
				if onDone != nil {
					onDone(n, len(keys))
				}
				finished <- k
			}
		}()
	}

	// Dispatch loop: feed ready keys (plan order preserved among
	// equals) and unblock dependents as their leaders finish. The
	// select keeps the dispatcher responsive to completions even while
	// every worker is busy, and every key — dispatched, skipped, or
	// failed — flows back through finished exactly once, so the loop
	// terminates when the count says so.
	ready := make([]RunKey, 0, len(keys))
	for _, k := range keys {
		if blockedBy[k] == 0 {
			ready = append(ready, k)
		}
	}
	for completed := 0; completed < len(keys); {
		var feed chan RunKey
		var next RunKey
		if len(ready) > 0 {
			feed = work
			next = ready[0]
		}
		select {
		case feed <- next:
			ready = ready[1:]
		case k := <-finished:
			completed++
			for _, dep := range dependents[k] {
				blockedBy[dep]--
				if blockedBy[dep] == 0 {
					ready = append(ready, dep)
				}
			}
		}
	}
	close(work)
	wg.Wait()
	close(cancelDone)
	<-cancelStopped

	if r.interrupted.Load() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("experiment: interrupted: %w", err)
		}
		return errors.New("experiment: interrupted")
	}
	if firstErr != nil {
		return fmt.Errorf("experiment: %d of %d runs failed; first: %w", nFailed, len(keys), firstErr)
	}
	return nil
}
