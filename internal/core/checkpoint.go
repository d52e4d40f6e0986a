package core

import (
	"fmt"
	"sync/atomic"

	"ulmt/internal/checkpoint"
	"ulmt/internal/cpu"
	"ulmt/internal/prefetch"
	"ulmt/internal/sim"
	"ulmt/internal/workload"
)

// Checkpoint/restore for a whole machine.
//
// The protocol is quiescent-point snapshotting: a checkpoint is taken
// only between engine steps, at an instant where the machine owes
// itself no work — request queues empty, no outstanding misses, no
// buffered write-backs, no bus traffic queued or in flight, issue
// port and ULMT idle, processor neither blocked nor holding pending
// accesses — and the event queue holds exactly one event, the
// processor's own step self-event. Each of those conditions kills a
// class of state that cannot cross a process boundary: scheduled
// events carry closures and live pointers (retry shims, bus
// completion callbacks, deposit events), and at a quiescent point
// none exist. What remains is plain packed data — caches, tables,
// queues, counters, the clock — which the component Snapshot/Restore
// codecs (see each package's snapshot.go) serialize exactly. On
// restore, the single elided event is re-created by scheduling the
// processor's step at its checkpointed cycle, and the continuation is
// bit-identical to the uninterrupted run: same event order, same
// clock, same report bytes.
//
// Quiescent points recur naturally whenever the processor computes
// long enough for the memory system and ULMT to drain, which on the
// paper's workloads is many times per simulated millisecond. A
// checkpoint request therefore means "stop at the next quiescent
// point"; if none arrives before the run finishes, the finished
// result is the answer and no checkpoint is needed.

// RunOutcome says how a controlled run ended.
type RunOutcome int

const (
	// RunFinished: the op stream completed; Results are valid.
	RunFinished RunOutcome = iota
	// RunAborted: the control asked to stop and discard.
	RunAborted
	// RunCheckpointed: the run stopped at a quiescent point and the
	// system is ready for WriteCheckpoint.
	RunCheckpointed
)

// Control states. Abort wins over checkpoint: an abort request
// overwrites a pending checkpoint request, never the reverse.
const (
	ctlRun int32 = iota
	ctlAbort
	ctlCheckpoint
)

// RunControl steers a RunControlled simulation from other goroutines:
// a watchdog can Abort a wedged run, a signal handler can
// RequestCheckpoint so in-flight work survives Ctrl-C. The zero value
// means "run to completion".
type RunControl struct {
	state atomic.Int32

	// CheckpointAfterEvents, when non-zero, acts as a deterministic
	// RequestCheckpoint issued once the engine has fired that many
	// events — the kill-and-resume equivalence tests use it to stop
	// mid-flight at a reproducible spot.
	CheckpointAfterEvents uint64
}

// Abort asks the run to stop and discard its state.
func (c *RunControl) Abort() { c.state.Store(ctlAbort) }

// RequestCheckpoint asks the run to stop at the next quiescent point,
// ready for WriteCheckpoint. A no-op after Abort.
func (c *RunControl) RequestCheckpoint() { c.state.CompareAndSwap(ctlRun, ctlCheckpoint) }

// Aborted reports whether Abort was called.
func (c *RunControl) Aborted() bool { return c.state.Load() == ctlAbort }

// SupportsCheckpoint reports whether this machine can be checkpointed
// at all. Fault plans keep pseudo-random schedules and remap events
// in flight, active prefetching keeps a self-rescheduling pump event
// alive, and Func-adapted algorithms carry arbitrary user closures —
// none of which can cross a process boundary, so such runs honestly
// decline instead of writing a checkpoint that would misload.
func (s *System) SupportsCheckpoint() bool {
	if s.faults != nil || s.active != nil {
		return false
	}
	return prefetch.SupportsSnapshot(s.ulmt)
}

// checkpointReady reports whether this instant is a quiescent point
// (see the protocol comment above).
func (s *System) checkpointReady() bool {
	return s.Quiesced() && !s.issueBusy && !s.ulmtBusy &&
		s.proc != nil && s.proc.Idle() && s.eng.Pending() == 1
}

// RunControlled executes the op stream like Run, but polls ctl
// between events: Abort stops and discards, RequestCheckpoint stops
// at the next quiescent point with the machine ready for
// WriteCheckpoint. A nil ctl is exactly Run.
func (s *System) RunControlled(app string, ops []workload.Op, ctl *RunControl) (Results, RunOutcome) {
	s.startRun(ops)
	return s.runLoop(app, ctl)
}

func (s *System) runLoop(app string, ctl *RunControl) (Results, RunOutcome) {
	if ctl == nil {
		s.eng.Run()
		return s.results(app), RunFinished
	}
	// Control is polled per batch on the fast path (an atomic load
	// per event is measurable over ~10^9 events) and per event once a
	// checkpoint has been requested, since quiescent points must be
	// inspected between single steps.
	const pollBatch = 4096
	for {
		switch ctl.state.Load() {
		case ctlAbort:
			return Results{}, RunAborted
		case ctlCheckpoint:
			if s.checkpointReady() {
				return Results{}, RunCheckpointed
			}
			if !s.eng.Step() {
				return s.results(app), RunFinished
			}
		default:
			for i := 0; i < pollBatch; i++ {
				if !s.eng.Step() {
					return s.results(app), RunFinished
				}
			}
			if ctl.CheckpointAfterEvents != 0 && s.eng.Fired() >= ctl.CheckpointAfterEvents {
				ctl.RequestCheckpoint()
			}
		}
	}
}

// CheckpointPayload serializes the machine's complete state. Only
// valid in the RunCheckpointed state (or any other quiescent point);
// panics otherwise, because a partial snapshot would restore to a
// silently wrong machine.
func (s *System) CheckpointPayload() []byte {
	if !s.checkpointReady() {
		panic("core: checkpoint away from a quiescent point: " + s.DrainState())
	}
	if !s.SupportsCheckpoint() {
		panic("core: checkpoint of an unsupported configuration")
	}
	w := checkpoint.NewWriter()
	s.snapshot(w)
	return w.Bytes()
}

// WriteCheckpoint atomically writes the machine's state to path,
// framed and integrity-checked (see internal/checkpoint).
func (s *System) WriteCheckpoint(path string, fingerprint [32]byte) error {
	return checkpoint.Save(path, fingerprint, s.CheckpointPayload())
}

// ResumeCheckpoint loads the checkpoint at path into this freshly
// constructed machine — same Config, never started — and continues
// the run to completion (or the next ctl stop). The continuation is
// bit-identical to the run that wrote the checkpoint.
func (s *System) ResumeCheckpoint(app string, ops []workload.Op, path string, fingerprint [32]byte, ctl *RunControl) (Results, RunOutcome, error) {
	payload, err := checkpoint.Load(path, fingerprint)
	if err != nil {
		return Results{}, RunAborted, err
	}
	return s.ResumePayload(app, ops, payload, ctl)
}

// ResumePayload is ResumeCheckpoint for an already-loaded payload.
func (s *System) ResumePayload(app string, ops []workload.Op, payload []byte, ctl *RunControl) (Results, RunOutcome, error) {
	if !s.SupportsCheckpoint() {
		return Results{}, RunAborted, fmt.Errorf("core: this configuration does not support checkpoints")
	}
	if s.proc != nil {
		return Results{}, RunAborted, fmt.Errorf("core: resume into an already-started system")
	}
	r := checkpoint.NewReader(payload)
	r.Tag("system")
	now := sim.Cycle(r.I64())
	seq := r.U64()
	fired := r.U64()
	stepAt := sim.Cycle(r.I64())
	// The processor is rebuilt through cpu.New so construction-time
	// config normalization re-applies, then overwritten with the
	// checkpointed state; Start is never called on the resume path.
	proc, err := cpu.New(s.eng, s.cfg.CPU, s, ops)
	if err != nil {
		panic(err)
	}
	s.proc = proc
	s.restore(r)
	if err := r.Err(); err != nil {
		return Results{}, RunAborted, fmt.Errorf("core: restore: %w", err)
	}
	if stepAt < now {
		return Results{}, RunAborted, fmt.Errorf("core: restore: step event at %d before clock %d", stepAt, now)
	}
	s.eng.RestoreState(now, seq, fired)
	s.proc.ResumeAt(stepAt)
	res, out := s.runLoop(app, ctl)
	return res, out, nil
}

// snapshot writes every component and run-level counter in a fixed
// order; restore walks the identical order. The engine header (clock,
// seq, fired, step-event cycle) is written by CheckpointPayload's
// caller-side framing above and read back in ResumePayload.
//
// The walk splits in two: the machine-shared components (page mapper,
// bus, DRAM) that exist once regardless of core count, then
// snapshotCore with everything one core owns privately. The
// multi-core checkpoint (multicore.go) reuses snapshotCore per core
// after writing the shared components once.
func (s *System) snapshot(w *checkpoint.Writer) {
	w.Tag("system")
	now, seq, fired := s.eng.SnapshotState()
	stepAt, ok := s.eng.NextAt()
	if !ok {
		panic("core: snapshot with an empty event queue")
	}
	w.I64(int64(now))
	w.U64(seq)
	w.U64(fired)
	w.I64(int64(stepAt))

	s.mapper.Snapshot(w)
	s.fsb.Snapshot(w)
	s.ram.Snapshot(w)
	s.snapshotCore(w)
}

// snapshotCore serializes one core's private state: caches, memory
// thread, controller queues, prefetchers, processor and run counters.
func (s *System) snapshotCore(w *checkpoint.Writer) {
	w.Tag("core")
	s.l1.Snapshot(w)
	s.l2.Snapshot(w)
	w.Bool(s.mp != nil)
	if s.mp != nil {
		s.mp.Snapshot(w)
	}
	s.q1.Snapshot(w)
	s.q2.Snapshot(w)
	s.q3.Snapshot(w)
	s.filter.Snapshot(w)
	prefetch.SnapshotAlg(w, s.ulmt)
	w.Bool(s.cfg.Conven != nil)
	if s.cfg.Conven != nil {
		s.cfg.Conven.Snapshot(w)
	}
	w.Bool(s.cfg.DASP != nil)
	if s.cfg.DASP != nil {
		s.cfg.DASP.Snapshot(w)
	}
	s.proc.Snapshot(w)

	w.Tag("run-counters")
	s.missDist.Snapshot(w)
	w.I64(int64(s.lastMissAt))
	w.Bool(s.sawMiss)
	w.U64(s.outcomes.Hits)
	w.U64(s.outcomes.DelayedHits)
	w.U64(s.outcomes.NonPrefMisses)
	w.U64(s.outcomes.Replaced)
	w.U64(s.outcomes.Redundant)
	w.U64(s.outcomes.DroppedNoMSHR)
	w.U64(s.outcomes.DroppedPendingSet)
	w.U64(s.outcomes.DroppedWritebackHit)
	w.U64(s.demandMisses)
	w.U64(s.prefReqsToMem)
	w.U64(s.pushesToL2)
	w.U64(s.q3Drops)
	w.U64(s.xMatchDemand)
	w.U64(s.xMatchPush)
	w.U64(s.remapsHandled)
	w.U64(s.remapRowsMoved)
	w.I64(int64(s.backoffUntil))
	w.U64(s.degradedSheds)
	w.U64(s.degradedDropped)
}

func (s *System) restore(r *checkpoint.Reader) {
	s.mapper.Restore(r)
	s.fsb.Restore(r)
	s.ram.Restore(r)
	s.restoreCore(r)
}

// restoreCore rebuilds the state captured by snapshotCore.
func (s *System) restoreCore(r *checkpoint.Reader) {
	r.Tag("core")
	s.l1.Restore(r)
	s.l2.Restore(r)
	hasMP := r.Bool()
	if hasMP != (s.mp != nil) && r.Err() == nil {
		r.Failf("memory processor presence %v, configured %v", hasMP, s.mp != nil)
		return
	}
	if s.mp != nil {
		s.mp.Restore(r)
	}
	s.q1.Restore(r)
	s.q2.Restore(r)
	s.q3.Restore(r)
	s.filter.Restore(r)
	prefetch.RestoreAlg(r, s.ulmt)
	hasConven := r.Bool()
	if hasConven != (s.cfg.Conven != nil) && r.Err() == nil {
		r.Failf("processor-side prefetcher presence %v, configured %v", hasConven, s.cfg.Conven != nil)
		return
	}
	if s.cfg.Conven != nil {
		s.cfg.Conven.Restore(r)
	}
	hasDASP := r.Bool()
	if hasDASP != (s.cfg.DASP != nil) && r.Err() == nil {
		r.Failf("DASP presence %v, configured %v", hasDASP, s.cfg.DASP != nil)
		return
	}
	if s.cfg.DASP != nil {
		s.cfg.DASP.Restore(r)
	}
	s.proc.Restore(r)

	r.Tag("run-counters")
	s.missDist.Restore(r)
	s.lastMissAt = sim.Cycle(r.I64())
	s.sawMiss = r.Bool()
	s.outcomes.Hits = r.U64()
	s.outcomes.DelayedHits = r.U64()
	s.outcomes.NonPrefMisses = r.U64()
	s.outcomes.Replaced = r.U64()
	s.outcomes.Redundant = r.U64()
	s.outcomes.DroppedNoMSHR = r.U64()
	s.outcomes.DroppedPendingSet = r.U64()
	s.outcomes.DroppedWritebackHit = r.U64()
	s.demandMisses = r.U64()
	s.prefReqsToMem = r.U64()
	s.pushesToL2 = r.U64()
	s.q3Drops = r.U64()
	s.xMatchDemand = r.U64()
	s.xMatchPush = r.U64()
	s.remapsHandled = r.U64()
	s.remapRowsMoved = r.U64()
	s.backoffUntil = sim.Cycle(r.I64())
	s.degradedSheds = r.U64()
	s.degradedDropped = r.U64()
}
