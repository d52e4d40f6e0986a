package sim

import "math/bits"

// The wheel exploits the latency profile of a memory-system
// simulator: almost every delay is a short bounded latency (cache
// round trips of a few cycles, bus slots of tens, DRAM accesses of a
// couple hundred, ULMT sessions of a few thousand), so a near level of
// wheelSize per-cycle buckets ahead of the clock catches essentially
// all traffic. Delays of a few thousand to ~2M cycles — the sharded
// ULMT's FIFO time servers deposit that far ahead under load — land in
// a coarse far level of spanSize-cycle spans, appended in O(1) and
// cascaded into the near level span by span. Only truly far-future
// events (multiprogramming timeslices, fault schedules) reach the
// overflow heap.
const (
	wheelBits = 12
	wheelSize = 1 << wheelBits // near-level buckets
	wheelMask = wheelSize - 1

	spanBits  = 10
	spanSize  = 1 << spanBits        // cycles per far-level span
	nearSpans = wheelSize / spanSize // spans the near level holds
	farSpans  = 2048                 // far-level reach, in spans
	farMask   = farSpans - 1
)

// bucket holds the events of exactly one cycle, in scheduling order.
// head indexes the next event to fire; the backing array is reused
// across window laps, so a warmed-up wheel appends without growing.
type bucket struct {
	ev   []event
	head int
}

// wheel is a two-level time wheel with a two-level occupancy bitmap
// over the near level and a spill heap for events beyond the far
// level's reach. Window limits are span-aligned: with s the span
// holding base, the near level covers [base, nearLimit) where
// nearLimit = (s+nearSpans)*spanSize — more than wheelSize-spanSize
// and at most wheelSize cycles, so near buckets still map one-to-one
// to cycles — and the far level covers the farSpans whole spans after
// it, [nearLimit, farLimit). The overflow heap holds [farLimit, ∞).
//
// Invariants:
//
//   - base only advances, and only to a cycle with no earlier pending
//     event (the earliest wheel event, the far or overflow minimum
//     when the near level is empty, or a RunUntil deadline that all
//     events precede).
//   - Bucket at&wheelMask maps one-to-one to cycles inside the near
//     window, so per-bucket append order is per-cycle FIFO order.
//   - Every far event is at >= nearLimit and every overflow event at
//     >= farLimit: the levels are ordered in time. A far span holds
//     its events in scheduling (seq) order.
//   - Cascade: advanceTo moves every far span the near window now
//     covers into the near buckets, then spills every overflow event
//     the far reach now covers, before any event of the new window
//     fires or is scheduled. An event can only be scheduled into the
//     near level at cycle c once nearLimit > c, and by then every
//     older event at c has been cascaded ahead of it, so same-cycle
//     FIFO stays exact across both boundaries. The same argument
//     applies one level up: an overflow event spills into its far
//     span when the span comes into reach, before anything else can
//     be scheduled there.
type wheel struct {
	base     Cycle
	count    int // events resident in near buckets
	summary  uint64
	words    [wheelSize / 64]uint64
	buckets  [wheelSize]bucket
	far      [farSpans][]event
	farCount int // events resident in far spans
	over     overflowHeap
}

func (w *wheel) len() int { return w.count + w.farCount + w.over.len() }

// nearLimit is the first cycle past the near window.
func (w *wheel) nearLimit() Cycle { return (w.base>>spanBits + nearSpans) << spanBits }

func (w *wheel) mark(idx int) {
	w.words[idx>>6] |= 1 << uint(idx&63)
	w.summary |= 1 << uint(idx>>6)
}

func (w *wheel) clear(idx int) {
	w.words[idx>>6] &^= 1 << uint(idx&63)
	if w.words[idx>>6] == 0 {
		w.summary &^= 1 << uint(idx>>6)
	}
}

// slot reserves the next entry of at's bucket and returns it for
// in-place construction — the engine writes event fields straight
// into the bucket, skipping the stack-temporary copy a push-by-value
// would cost on every scheduled event. Returns nil when at lies
// beyond the near window; the caller spills. The caller must assign
// every field: a reused slot still holds the stale scalars of the
// event that last occupied it (pop only clears the pointer-shaped
// fields). The engine guarantees at >= now >= base.
func (w *wheel) slot(at Cycle) *event {
	if at >= w.nearLimit() {
		return nil
	}
	idx := int(at) & wheelMask
	b := &w.buckets[idx]
	if n := len(b.ev); n < cap(b.ev) {
		b.ev = b.ev[:n+1]
	} else {
		b.ev = append(b.ev, event{})
	}
	w.mark(idx)
	w.count++
	return &b.ev[len(b.ev)-1]
}

// spill files an event beyond the near window: into its far span when
// within reach, else into the overflow heap. The pointer parameter
// keeps the entry from being copied at every call boundary on the way
// in; spill stores a copy, never retains ev.
func (w *wheel) spill(ev *event) {
	if ev.at < w.nearLimit()+farSpans*spanSize {
		sp := &w.far[(ev.at>>spanBits)&farMask]
		*sp = append(*sp, *ev)
		w.farCount++
		return
	}
	w.over.push(ev)
}

// file appends ev to its near bucket; cascades and spills use it.
func (w *wheel) file(ev *event) {
	idx := int(ev.at) & wheelMask
	b := &w.buckets[idx]
	b.ev = append(b.ev, *ev)
	w.mark(idx)
	w.count++
}

// first returns the bucket index of the earliest near event, or -1
// when the buckets are empty. The bitmap is scanned in time order:
// from the base position to the end of the window, then wrapping.
func (w *wheel) first() int {
	if w.count == 0 {
		return -1
	}
	p := int(w.base) & wheelMask
	pw, pb := p>>6, uint(p&63)
	// Bits of the base word at or after the base position.
	if m := w.words[pw] &^ (1<<pb - 1); m != 0 {
		return pw<<6 + bits.TrailingZeros64(m)
	}
	// Whole words after the base word. (pw+1 == 64 shifts the mask
	// to zero, correctly yielding no candidates.)
	if m := w.summary &^ (1<<uint(pw+1) - 1); m != 0 {
		wi := bits.TrailingZeros64(m)
		return wi<<6 + bits.TrailingZeros64(w.words[wi])
	}
	// Wrapped: whole words before the base word.
	if m := w.summary & (1<<uint(pw) - 1); m != 0 {
		wi := bits.TrailingZeros64(m)
		return wi<<6 + bits.TrailingZeros64(w.words[wi])
	}
	// Wrapped all the way into the base word's leading bits.
	if m := w.words[pw] & (1<<pb - 1); m != 0 {
		return pw<<6 + bits.TrailingZeros64(m)
	}
	return -1
}

// cycleOf converts a bucket index to its absolute cycle under the
// current window.
func (w *wheel) cycleOf(idx int) Cycle {
	d := idx - int(w.base)&wheelMask
	if d < 0 {
		d += wheelSize
	}
	return w.base + Cycle(d)
}

// farMin reports the earliest event beyond the near window: the
// minimum of the first occupied far span (spans hold seq order, not
// time order, so this scans one span), else the overflow minimum.
// Only consulted when the near level is empty.
func (w *wheel) farMin() (Cycle, bool) {
	if w.farCount > 0 {
		for s := w.base>>spanBits + nearSpans; ; s++ {
			sp := w.far[s&farMask]
			if len(sp) == 0 {
				continue
			}
			m := sp[0].at
			for i := 1; i < len(sp); i++ {
				if sp[i].at < m {
					m = sp[i].at
				}
			}
			return m, true
		}
	}
	if w.over.len() > 0 {
		return w.over.minAt(), true
	}
	return 0, false
}

// peekAt reports the earliest pending cycle. The levels are ordered
// in time (invariant above), so the near buckets win whenever they
// are non-empty.
func (w *wheel) peekAt() (Cycle, bool) {
	if w.count > 0 {
		return w.cycleOf(w.first()), true
	}
	return w.farMin()
}

// advanceTo moves the window start to t, cascading the far spans and
// spilling the overflow events the moved limits now cover. Callers
// must guarantee no pending event precedes t. Re-anchoring within the
// same span — the common case, every time the clock moves — leaves
// both limits unchanged and costs nothing more.
func (w *wheel) advanceTo(t Cycle) {
	from := w.base>>spanBits + nearSpans // first span past the old near window
	w.base = t
	to := t>>spanBits + nearSpans
	if to == from {
		return
	}
	// Spans past the old far reach were never far-resident.
	end := to
	if end > from+farSpans {
		end = from + farSpans
	}
	for s := from; s < end && w.farCount > 0; s++ {
		sp := &w.far[s&farMask]
		for i := range *sp {
			ev := &(*sp)[i]
			w.file(ev)
			ev.p, ev.actor = nil, nil // release payload references
		}
		w.farCount -= len(*sp)
		*sp = (*sp)[:0]
	}
	// Overflow events pop in (at, seq) order, so each same-cycle group
	// lands in its bucket or span already in FIFO order.
	nearLim := to << spanBits
	farLim := nearLim + farSpans*spanSize
	for w.over.len() > 0 && w.over.minAt() < farLim {
		ev := w.over.pop()
		if ev.at < nearLim {
			w.file(&ev)
		} else {
			sp := &w.far[(ev.at>>spanBits)&farMask]
			*sp = append(*sp, ev)
			w.farCount++
		}
	}
}

// pop removes the earliest event into dst, advancing the window as
// needed.
func (w *wheel) pop(dst *event) bool {
	_, _, popped := w.popDue(dst, Forever)
	return popped
}

// popDue is the fused peek-and-pop: it removes the earliest event
// into dst only if it is due no later than limit, and otherwise
// leaves the queue and window untouched. It reports the earliest
// pending cycle either way (pending is false on an empty queue).
// Writing through the caller's pointer (a stack slot reused across
// the run loop) moves each entry exactly once on the way out.
func (w *wheel) popDue(dst *event, limit Cycle) (next Cycle, pending, popped bool) {
	if w.count == 0 {
		t, ok := w.farMin()
		if !ok || t > limit {
			return t, ok, false
		}
		// Everything pending is beyond the near window: jump the
		// window to it, which cascades it into the near buckets.
		w.advanceTo(t)
	}
	idx := w.first()
	t := w.cycleOf(idx)
	if t > limit {
		return t, true, false
	}
	if t != w.base {
		// The front of the wheel moved forward; re-anchor the window
		// there so far and overflow events within reach cascade in
		// before any event of cycle t fires. Cascaded events are
		// strictly later than t, so idx still fronts the queue.
		w.advanceTo(t)
	}
	b := &w.buckets[idx]
	e := &b.ev[b.head]
	*dst = *e
	// Release only the pointer-shaped fields: that is all the GC cares
	// about, and slot() overwrites every field on reuse, so clearing
	// the scalars too would just be extra stores on the hottest loop.
	e.p, e.actor = nil, nil
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		w.clear(idx)
	}
	w.count--
	return t, true, true
}

// overflowHeap is a hand-rolled binary min-heap on (at, seq). Unlike
// container/heap it never boxes: push and pop move event values
// within one backing slice. seqKind compares as seq for equal at,
// since seq occupies its high bits.
type overflowHeap struct {
	ev []event
}

func (h *overflowHeap) len() int     { return len(h.ev) }
func (h *overflowHeap) minAt() Cycle { return h.ev[0].at }

func (h *overflowHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seqKind < b.seqKind
}

func (h *overflowHeap) push(ev *event) {
	h.ev = append(h.ev, *ev)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *overflowHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // release payload references
	h.ev = h.ev[:n]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h.ev[i], h.ev[s] = h.ev[s], h.ev[i]
		i = s
	}
	return top
}
