package experiment

import (
	"errors"
	"fmt"
	"os"
	"time"

	"ulmt/internal/core"
	"ulmt/internal/prefetch"
)

// Self-healing execution: every simulation runs under a
// core.RunControl with panic isolation, a wall-clock watchdog with
// bounded retry, and (when a Cache is attached) crash-safe
// persistence — completed results are cached as they finish, and an
// interrupt checkpoints whatever is mid-flight beside them, so
// re-running the same command continues instead of restarting.

// errInterrupted marks a run stopped by Interrupt (SIGINT/SIGTERM via
// ExecuteAll's context). It is terminal, never retried: the point of
// an interrupt is to stop.
var errInterrupted = errors.New("experiment: run interrupted")

// errWatchdog marks an attempt aborted past Options.RunTimeout, the
// only failure worth retrying: simulations are deterministic, so a
// panicked run panics again, but a timeout may be host pressure.
var errWatchdog = errors.New("watchdog")

// simOutcome is what the runs memo holds: either results or the error
// that failed the run. Memoizing the error too keeps single-flight
// semantics — a failed run is not silently re-attempted by every
// renderer that asks for it.
type simOutcome struct {
	res core.Results
	err error
}

// activeRun is a registry entry for an in-flight simulation, the
// handle Interrupt uses to stop it (checkpointing when it can).
type activeRun struct {
	ctl            *core.RunControl
	checkpointable bool
}

// Interrupt stops the matrix: in-flight runs that can checkpoint are
// asked to stop at their next quiescent point (attempt writes the
// checkpoint), the rest are aborted, and not-yet-started keys are
// skipped. ExecuteAll wires this to its context's cancellation.
func (r *Runner) Interrupt() {
	r.interrupted.Store(true)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.active {
		if a.checkpointable {
			a.ctl.RequestCheckpoint()
		} else {
			a.ctl.Abort()
		}
	}
}

// Interrupted reports whether Interrupt has been called.
func (r *Runner) Interrupted() bool { return r.interrupted.Load() }

// Retried reports how many run attempts were retried after a
// watchdog timeout; Failed how many runs failed for good (a panic, or
// a timeout past the retry budget). Both appear in the cmd/ulmtsim
// summary footer.
func (r *Runner) Retried() uint64 { return r.retried.Load() }
func (r *Runner) Failed() uint64  { return r.failed.Load() }

func (r *Runner) register(k RunKey, a activeRun) {
	r.mu.Lock()
	r.active[k] = a
	r.mu.Unlock()
}

func (r *Runner) unregister(k RunKey) {
	r.mu.Lock()
	delete(r.active, k)
	r.mu.Unlock()
}

// outcome returns the memoized outcome for a key, computing it (with
// aliasing and healing) on first use.
func (r *Runner) outcome(k RunKey) simOutcome {
	return r.runs.get(k, func() simOutcome { return r.compute(k) })
}

// compute runs one simulation with caching, aliasing and retry
// around it. It runs at most once per key (single-flight memo) and its
// attempts are strictly sequential.
func (r *Runner) compute(k RunKey) simOutcome {
	// The persistent cache is consulted before any execution strategy:
	// a hit replays the exact Results a previous invocation computed
	// (same behavior version, same Options fingerprint), so no
	// simulation is touched.
	if r.cache != nil {
		if res, ok := r.cache.LoadRun(k); ok {
			return simOutcome{res: res}
		}
	}
	// A planned identity alias reuses its leader's results (fork.go);
	// if the leader failed it falls through to the scratch path below.
	if out, ok := r.computeForked(k); ok {
		if out.err == nil {
			r.saveToCache(k, out.res)
		}
		return out
	}
	for attempt := 1; ; attempt++ {
		res, err := r.attempt(k)
		switch {
		case err == nil:
			r.saveToCache(k, res)
			return simOutcome{res: res}
		case errors.Is(err, errInterrupted):
			return simOutcome{err: err}
		case errors.Is(err, errWatchdog) && attempt <= r.opt.MaxRetries:
			r.retried.Add(1)
			// Linear backoff: transient host pressure, the usual cause
			// of watchdog trips, eases.
			time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
		default:
			r.failed.Add(1)
			return simOutcome{err: err}
		}
	}
}

// saveToCache records a completed result in the persistent cache and
// drops the run's mid-flight checkpoint (a no-op without a cache).
// Called on every success path — scratch and aliased — so a cache
// attached mid-way through a matrix's history still converges to
// fully warm.
func (r *Runner) saveToCache(k RunKey, res core.Results) {
	if r.cache != nil {
		r.cache.SaveRun(k, res)
		r.cache.removeCheckpoint(k)
	}
}

// attempt executes one isolated try of the simulation: panics become
// errors, the watchdog aborts it past Options.RunTimeout, an
// interrupt either checkpoints it (support and a cache permitting) or
// aborts it. A checkpoint left by an interrupted invocation is
// restored rather than re-simulated; one that fails its integrity or
// fingerprint check is discarded and the run starts from cycle 0.
func (r *Runner) attempt(k RunKey) (res core.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run %s/%s panicked: %v", k.App, k.Label, p)
		}
	}()
	if h := r.testHook; h != nil {
		h(k)
	}
	cfg := r.BuildConfig(k.App, k.Label)
	// The config's correlation table is this attempt's largest
	// allocation; retire it for the next same-geometry build once the
	// machine is done with it (all results and checkpoints written).
	defer func() { prefetch.RecycleTables(cfg.ULMT) }()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Results{}, err
	}
	ops := r.Ops(k.App)
	ctl := &core.RunControl{}
	checkpointable := r.cache != nil && sys.SupportsCheckpoint()
	r.register(k, activeRun{ctl: ctl, checkpointable: checkpointable})
	defer r.unregister(k)
	// Registered first, checked second: whichever order Interrupt and
	// this attempt race in, the run is stopped or never started.
	if r.interrupted.Load() {
		return core.Results{}, errInterrupted
	}
	if r.opt.RunTimeout > 0 {
		t := time.AfterFunc(r.opt.RunTimeout, ctl.Abort)
		defer t.Stop()
	}

	var out core.RunOutcome
	if checkpointable && r.cache.hasCheckpoint(k) {
		var rerr error
		res, out, rerr = sys.ResumeCheckpoint(k.App, ops, r.cache.checkpointPath(k), r.cache.checkpointFingerprint(k), ctl)
		if rerr != nil {
			// A checkpoint that fails validation must not wedge
			// recovery: discard it and run from the beginning.
			fmt.Fprintf(os.Stderr, "ulmtsim: discarding checkpoint for %s/%s: %v\n", k.App, k.Label, rerr)
			r.cache.removeCheckpoint(k)
			prefetch.RecycleTables(cfg.ULMT)
			cfg = r.BuildConfig(k.App, k.Label)
			if sys, err = core.NewSystem(cfg); err != nil {
				return core.Results{}, err
			}
			res, out = sys.RunControlled(k.App, ops, ctl)
		}
	} else {
		res, out = sys.RunControlled(k.App, ops, ctl)
	}

	switch out {
	case core.RunFinished:
		res.Label = k.Label
		r.computed.Add(1)
		r.eventsFired.Add(res.EventsFired)
		return res, nil
	case core.RunCheckpointed:
		if werr := r.cache.writeCheckpoint(k, sys); werr != nil {
			fmt.Fprintf(os.Stderr, "ulmtsim: checkpointing %s/%s: %v\n", k.App, k.Label, werr)
		}
		return core.Results{}, errInterrupted
	default: // core.RunAborted
		if r.interrupted.Load() {
			return core.Results{}, errInterrupted
		}
		return core.Results{}, fmt.Errorf("run %s/%s exceeded the %s %w", k.App, k.Label, r.opt.RunTimeout, errWatchdog)
	}
}
