package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Conservative time-windowed execution over one Engine.
//
// A DomainEngine partitions a machine into domains that can advance
// privately — in this codebase, the per-core CPU + L1 subsystems of a
// multi-core machine — while everything shared (bus, DRAM, page
// mapper, sharded ULMT, miss handling) stays on the single global
// event queue. Each domain exposes an *armed* occurrence (its next
// issue-cycle step, kept out of the queue) and can *stretch*: advance
// its private state off the engine clock up to a horizon, buffering
// any cross-domain effects. Stretches of different domains touch
// disjoint state, so they may run concurrently on a worker pool.
//
// Step() picks the next thing to execute under a canonical order that
// depends only on simulation state, never on worker count:
//
//  1. if the earliest queue event is due no later than the earliest
//     armed occurrence, fire it (queue wins ties);
//  2. otherwise open a window [ts, H): ts = the earliest armed
//     occurrence, H = the earliest queue event (the conservative
//     bound — nothing outside a domain can affect it before H), or
//     ts + cap when a window cap is set, whichever is smaller;
//  3. every stretchable domain armed before H stretches to H — in
//     parallel when workers > 1, serially otherwise, with identical
//     results because stretches are private by contract;
//  4. at the barrier, each stretched domain commits its buffered
//     effects into the queue in domain-index order;
//  5. the earliest committed handoff (lowest domain index at a tie)
//     then runs at once when it is provably the next thing step 1
//     would pick — see "Direct handoff" below.
//
// The horizon H is computed from the queue alone, and commits replay
// in a fixed order, so the sequence of fired events — and with it
// every simulation result — is byte-identical for any worker count.
// The lookahead here is stronger than the classic Chandy–Misra
// cross-domain latency floor: a stretch by contract touches only
// domain-private state, so *any* horizon up to the domain's next
// externally scheduled event is safe, and the global next-queue-event
// bound conservatively under-approximates that.
//
// # Armed set
//
// The engine keeps its own copy of every domain's armed occurrence
// (slots) plus a cached minimum, so the common step — all domains
// stalled on the memory system — is a bare Engine.Step, and an armed
// step reads the cached minimum instead of polling every domain.
// Only the driving goroutine updates the copy: Arm, called by a
// domain that arms on the engine clock (from inside a queue event, a
// FireArmed or a handoff), and the window barrier, which re-reads
// ArmedAt of each domain that stretched. Stretches never touch it.
//
// # Direct handoff
//
// A stretch ends at a handoff — an occurrence that must run on the
// engine clock (an L1 miss, stream retirement) — at a cycle c < H.
// Let E be the earliest such handoff of the window. Every event
// queued before the window is at >= H > c. Every other event the
// barrier commits is, by the Commit contract, strictly after its own
// domain's handoff cycle or at/after H, and every other handoff is
// later than E or at the same cycle from a higher domain index, i.e.
// queued after E. So when no armed occurrence precedes c either, E
// is exactly what step 1 would pop next: the domain withholds it from
// the queue and it fires directly after the commits, at the same
// (cycle, seq) position, still counted in Fired.
type Domain interface {
	// ArmedAt reports the domain's next private occurrence, if any.
	ArmedAt() (Cycle, bool)
	// Stretchable reports whether the armed occurrence can run as a
	// private off-clock stretch. Non-stretchable domains (the
	// event-driven oracle) fire sequentially via FireArmed. It is
	// read once, when the domain is added.
	Stretchable() bool
	// FireArmed consumes the armed occurrence and executes it on the
	// engine clock, which the caller has advanced to its cycle.
	FireArmed()
	// Stretch advances private state from the armed occurrence up to
	// (excluding) horizon, buffering cross-domain effects. It must not
	// touch the engine or shared state: it may run on another
	// goroutine, concurrently with other domains' stretches.
	Stretch(horizon Cycle)
	// Handoff reports the cycle of the handoff the last stretch
	// latched, if any: the occurrence Commit schedules last.
	Handoff() (Cycle, bool)
	// Commit publishes the buffered effects into the event queue. It
	// is called sequentially at the window barrier, in domain order.
	// Every event it schedules other than the handoff must be due
	// strictly after the handoff's cycle, or at or after the horizon
	// when there is no handoff. With keepHandoff set, the handoff is
	// withheld from the queue for FireHandoff.
	Commit(keepHandoff bool)
	// FireHandoff executes the withheld handoff on the engine clock,
	// which the caller has advanced to its cycle.
	FireHandoff()
}

// armedSlot is the engine's copy of one domain's armed occurrence.
type armedSlot struct {
	at      Cycle
	ok      bool
	stretch bool
}

// DomainEngine drives an Engine plus a set of Domains under the
// windowed schedule above.
type DomainEngine struct {
	eng     *Engine
	doms    []Domain
	workers int
	cap     Cycle
	active  []int

	// The armed set: slots mirror each domain's ArmedAt, nArmed
	// counts armed slots, and (minAt, minIdx) caches the earliest
	// armed slot — lowest index at a tie — unless minDirty.
	slots    []armedSlot
	nArmed   int
	minAt    Cycle
	minIdx   int
	minDirty bool

	// Worker pool state. Workers park on start; each window hands the
	// pool a horizon and an index sequence, and the last worker to
	// drain it signals done. The pool is lazily spawned on the first
	// parallel window and must be released with Close.
	started bool
	start   chan struct{}
	done    chan struct{}
	next    atomic.Int64
	pending atomic.Int64
	horizon Cycle
	mu      sync.Mutex
	panicv  any
}

// NewDomainEngine wraps eng. workers < 1 means GOMAXPROCS; 1 keeps
// every stretch on the calling goroutine (the sequential oracle for
// the parallel mode — the schedule is identical by construction).
func NewDomainEngine(eng *Engine, workers int) *DomainEngine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &DomainEngine{eng: eng, workers: workers}
}

// Add registers a domain and returns its index, the handle for Arm.
// Registration order is the canonical domain order used for
// tie-breaking and commit sequencing. The domain's current armed
// occurrence, if any, enters the armed set.
func (de *DomainEngine) Add(d Domain) int {
	i := len(de.doms)
	de.doms = append(de.doms, d)
	de.slots = append(de.slots, armedSlot{stretch: d.Stretchable()})
	if at, ok := d.ArmedAt(); ok {
		de.Arm(i, at)
	}
	return i
}

// Arm records that domain i armed an occurrence at cycle at. Domains
// call it whenever they arm on the engine clock — from a queue event,
// FireArmed or FireHandoff, always on the driving goroutine — and
// never from inside a stretch (the barrier reads those re-arms).
func (de *DomainEngine) Arm(i int, at Cycle) {
	s := &de.slots[i]
	if !s.ok {
		s.ok = true
		de.nArmed++
		if de.nArmed == 1 {
			de.minAt, de.minIdx, de.minDirty = at, i, false
			s.at = at
			return
		}
	}
	s.at = at
	if de.minDirty {
		return
	}
	if at < de.minAt || (at == de.minAt && i < de.minIdx) {
		de.minAt, de.minIdx = at, i
	} else if i == de.minIdx {
		de.minDirty = true // the minimum moved later
	}
}

// disarm drops domain i from the armed set.
func (de *DomainEngine) disarm(i int) {
	s := &de.slots[i]
	if !s.ok {
		return
	}
	s.ok = false
	de.nArmed--
	if i == de.minIdx {
		de.minDirty = true
	}
}

// armedMin returns the earliest armed occurrence and its domain,
// lowest index at a tie. The caller guarantees nArmed > 0.
func (de *DomainEngine) armedMin() (Cycle, int) {
	if de.minDirty {
		de.minIdx = -1
		for i := range de.slots {
			if s := &de.slots[i]; s.ok && (de.minIdx < 0 || s.at < de.minAt) {
				de.minAt, de.minIdx = s.at, i
			}
		}
		de.minDirty = false
	}
	return de.minAt, de.minIdx
}

// CheckArmed verifies the armed set against a full ArmedAt scan: every
// slot mirrors its domain and the cached minimum is the scan's. It is
// a test hook, called between Steps.
func (de *DomainEngine) CheckArmed() error {
	n, best := 0, -1
	var ts Cycle
	for i, d := range de.doms {
		at, ok := d.ArmedAt()
		if s := de.slots[i]; s.ok != ok || (ok && s.at != at) {
			return fmt.Errorf("sim: domain %d armed (%d, %v), armed set holds (%d, %v)", i, at, ok, s.at, s.ok)
		}
		if ok {
			n++
			if best < 0 || at < ts {
				best, ts = i, at
			}
		}
	}
	if n != de.nArmed {
		return fmt.Errorf("sim: %d domains armed, armed set counts %d", n, de.nArmed)
	}
	if n > 0 {
		if at, i := de.armedMin(); at != ts || i != best {
			return fmt.Errorf("sim: earliest armed domain %d at %d, cached minimum is domain %d at %d", best, ts, i, at)
		}
	}
	return nil
}

// SetWindowCap bounds window spans to at most cap cycles (0 = only
// the queue bounds them). Results are cap-invariant — slicing a
// stretch never changes where it ends — so this exists for the
// equivalence fuzzer, not for tuning.
func (de *DomainEngine) SetWindowCap(c Cycle) { de.cap = c }

// Workers reports the resolved worker count.
func (de *DomainEngine) Workers() int { return de.workers }

// ScratchBytes reports the retained size of the engine's own window
// scratch (the active-domain index list and the armed set), for
// budget accounting.
func (de *DomainEngine) ScratchBytes() int64 {
	return int64(len(de.doms)) * (8 + 16)
}

// Step executes the next schedulable unit — one queue event, one
// non-stretchable armed occurrence, or one whole window and its
// direct handoff — and reports whether anything remained to execute.
func (de *DomainEngine) Step() bool {
	if de.nArmed == 0 {
		return de.eng.Step()
	}
	ts, best := de.armedMin()
	tq, qok, fired := de.eng.stepDue(ts)
	if fired {
		return true
	}
	if !de.slots[best].stretch {
		de.disarm(best)
		de.eng.AdvanceTo(ts)
		de.doms[best].FireArmed()
		return true
	}
	h := Forever
	if de.cap > 0 && de.cap < h-ts {
		h = ts + de.cap
	}
	if qok && tq < h {
		h = tq
	}
	if cap(de.active) < len(de.doms) {
		de.active = make([]int, 0, len(de.doms))
	}
	de.active = de.active[:0]
	for i := range de.slots {
		if s := &de.slots[i]; s.ok && s.at < h && s.stretch {
			de.active = append(de.active, i)
			de.disarm(i)
		}
	}
	de.runStretches(h)
	// The barrier: re-read the stretched domains' re-arms, then pick
	// the direct handoff before anything is committed.
	direct := -1
	var hc Cycle
	for _, i := range de.active {
		d := de.doms[i]
		if at, ok := d.ArmedAt(); ok {
			de.Arm(i, at)
		}
		if at, ok := d.Handoff(); ok && (direct < 0 || at < hc) {
			direct, hc = i, at
		}
	}
	if direct >= 0 && de.nArmed > 0 {
		if at, _ := de.armedMin(); at < hc {
			direct = -1
		}
	}
	for _, i := range de.active {
		de.doms[i].Commit(i == direct)
	}
	if direct >= 0 {
		de.eng.dispatch(hc)
		de.doms[direct].FireHandoff()
	}
	return true
}

// Run steps until no queue events and no armed occurrences remain.
func (de *DomainEngine) Run() {
	for de.Step() {
	}
}

func (de *DomainEngine) runStretches(h Cycle) {
	n := len(de.active)
	if de.workers <= 1 || n <= 1 {
		for _, i := range de.active {
			de.doms[i].Stretch(h)
		}
		return
	}
	if !de.started {
		de.started = true
		de.start = make(chan struct{})
		de.done = make(chan struct{})
		for k := 0; k < de.workers; k++ {
			go de.worker()
		}
	}
	w := de.workers
	if w > n {
		w = n
	}
	de.horizon = h
	de.next.Store(0)
	de.pending.Store(int64(w))
	for k := 0; k < w; k++ {
		de.start <- struct{}{}
	}
	<-de.done
	de.mu.Lock()
	pv := de.panicv
	de.panicv = nil
	de.mu.Unlock()
	if pv != nil {
		panic(pv)
	}
}

// worker parks until a window is handed to the pool, then pulls
// active-domain indices off the shared cursor until the window
// drains. The channel send/receive pair orders the window's state
// publication and collection; a stretch panic is latched and
// re-raised on the driving goroutine.
func (de *DomainEngine) worker() {
	for range de.start {
		de.stretchSome()
		if de.pending.Add(-1) == 0 {
			de.done <- struct{}{}
		}
	}
}

func (de *DomainEngine) stretchSome() {
	defer func() {
		if r := recover(); r != nil {
			de.mu.Lock()
			if de.panicv == nil {
				de.panicv = r
			}
			de.mu.Unlock()
		}
	}()
	n := int64(len(de.active))
	for {
		i := de.next.Add(1) - 1
		if i >= n {
			return
		}
		de.doms[de.active[i]].Stretch(de.horizon)
	}
}

// Close releases the worker pool. Safe to call multiple times and on
// an engine that never went parallel; the DomainEngine must not Step
// again afterward unless workers = 1.
func (de *DomainEngine) Close() {
	if de.started {
		de.started = false
		close(de.start)
	}
}
