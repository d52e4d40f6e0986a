package sim

import (
	"reflect"
	"testing"
)

// stubDomain is a Domain shaped like a windowed core: each armed
// occurrence computes for work cycles and then misses, handing off to
// the engine clock, which issues a memory request that returns lat
// cycles later and re-arms the domain. Stretches by pure construction
// touch only the stub's own fields.
type stubDomain struct {
	de         *DomainEngine
	idx        int
	armed      bool
	at         Cycle
	work, lat  Cycle
	missed     bool
	missAt     Cycle
	computing  bool // the armed occurrence is the miss ending a compute block
	sequential bool // not stretchable: occurrences fire on the engine clock
	log        *[]uint64
}

const (
	stubHandoff Kind = iota
	stubFill
)

func (d *stubDomain) ArmedAt() (Cycle, bool) { return d.at, d.armed }
func (d *stubDomain) Stretchable() bool      { return !d.sequential }

// FireArmed runs one occurrence on the engine clock: the start of a
// compute block re-arms at its miss, the miss issues the request.
func (d *stubDomain) FireArmed() {
	d.armed = false
	if d.computing {
		d.computing = false
		d.Fire(stubHandoff, Event{})
		return
	}
	d.armed, d.at, d.computing = true, d.at+d.work, true
	d.de.Arm(d.idx, d.at)
}

func (d *stubDomain) Stretch(h Cycle) {
	d.armed = false
	c := d.at
	if !d.computing {
		c += d.work
	}
	if c < h {
		d.missed, d.missAt, d.computing = true, c, false
	} else {
		// The miss lies past the horizon: re-arm at it.
		d.armed, d.at, d.computing = true, c, true
	}
}

func (d *stubDomain) Handoff() (Cycle, bool) { return d.missAt, d.missed }

func (d *stubDomain) Commit(keepHandoff bool) {
	if d.missed && !keepHandoff {
		d.missed = false
		d.de.eng.Schedule(d.missAt, d, stubHandoff, Event{})
	}
}

func (d *stubDomain) FireHandoff() {
	d.missed = false
	d.Fire(stubHandoff, Event{})
}

func (d *stubDomain) Fire(k Kind, _ Event) {
	eng := d.de.eng
	if d.log != nil {
		*d.log = append(*d.log, uint64(eng.Now())<<8|uint64(d.idx)<<1|uint64(k))
	}
	if k == stubHandoff {
		eng.ScheduleAfter(d.lat, d, stubFill, Event{})
		return
	}
	d.armed, d.at = true, eng.Now()
	d.de.Arm(d.idx, d.at)
}

// newStubMachine builds a DomainEngine over n stub domains with
// staggered work and latency, every domain armed at cycle 0; domains
// whose index is in sequential are not stretchable.
func newStubMachine(workers, n int, log *[]uint64, sequential ...int) (*DomainEngine, []*stubDomain) {
	de := NewDomainEngine(NewEngine(), workers)
	var doms []*stubDomain
	for i := 0; i < n; i++ {
		d := &stubDomain{de: de, armed: true, work: Cycle(3 + 5*i), lat: Cycle(40 + 97*i), log: log}
		for _, j := range sequential {
			d.sequential = d.sequential || i == j
		}
		d.idx = de.Add(d)
		doms = append(doms, d)
	}
	return de, doms
}

// referenceStep is the windowed schedule without its shortcuts: it
// scans every domain's ArmedAt, peeks the queue before stepping it,
// and queues every handoff. DomainEngine.Step must fire exactly the
// same events in the same order.
func referenceStep(de *DomainEngine) bool {
	best := -1
	var ts Cycle
	for i, d := range de.doms {
		if at, ok := d.ArmedAt(); ok && (best < 0 || at < ts) {
			best, ts = i, at
		}
	}
	tq, qok := de.eng.NextAt()
	if best < 0 || (qok && tq <= ts) {
		return de.eng.Step()
	}
	if d := de.doms[best]; !d.Stretchable() {
		de.eng.AdvanceTo(ts)
		d.FireArmed()
		return true
	}
	h := Forever
	if qok {
		h = tq
	}
	var active []int
	for i, d := range de.doms {
		if at, ok := d.ArmedAt(); ok && at < h && d.Stretchable() {
			active = append(active, i)
		}
	}
	for _, i := range active {
		de.doms[i].Stretch(h)
	}
	for _, i := range active {
		de.doms[i].Commit(false)
	}
	return true
}

// TestDomainEngineArmedSet checks the armed set against a full
// ArmedAt scan after every Step, and that the schedule — direct
// handoffs included — fires the same events, in the same order and
// count, as the reference schedule, at any worker count and window
// cap, with and without a non-stretchable domain in the mix.
func TestDomainEngineArmedSet(t *testing.T) {
	const until = 200000
	for _, sequential := range [][]int{nil, {1}} {
		var wantLog []uint64
		ref, _ := newStubMachine(1, 4, &wantLog, sequential...)
		for ref.eng.Now() < until && referenceStep(ref) {
		}
		if len(wantLog) < 1000 {
			t.Fatalf("stub machine fired only %d events", len(wantLog))
		}
		for _, v := range []struct {
			workers int
			cap     Cycle
		}{{1, 0}, {4, 0}, {1, 7}, {3, 64}} {
			var log []uint64
			de, _ := newStubMachine(v.workers, 4, &log, sequential...)
			de.SetWindowCap(v.cap)
			for de.eng.Now() < until && de.Step() {
				if err := de.CheckArmed(); err != nil {
					t.Fatalf("sequential %v, workers %d, cap %d: %v", sequential, v.workers, v.cap, err)
				}
			}
			de.Close()
			if de.eng.Fired() != ref.eng.Fired() || !reflect.DeepEqual(log, wantLog) {
				t.Fatalf("sequential %v, workers %d, cap %d: fired %d events (reference %d), logs equal %v",
					sequential, v.workers, v.cap, de.eng.Fired(), ref.eng.Fired(), reflect.DeepEqual(log, wantLog))
			}
		}
	}
}

// TestDomainEngineRearm covers a domain moving its armed occurrence
// while armed: a later cycle must give up the cached minimum.
func TestDomainEngineRearm(t *testing.T) {
	de, doms := newStubMachine(1, 3, nil)
	for i, at := range []Cycle{5, 10, 10} {
		doms[i].at = at
		de.Arm(i, at)
	}
	doms[0].at = 20
	de.Arm(0, 20)
	if err := de.CheckArmed(); err != nil {
		t.Fatal(err)
	}
	if at, i := de.armedMin(); at != 10 || i != 1 {
		t.Fatalf("earliest armed domain %d at %d, want domain 1 at 10", i, at)
	}
}

// TestZeroAllocDomainStep is the allocation gate for the windowed
// schedule: steady-state DomainEngine steps — queue events, windows,
// commits and direct handoffs — perform zero heap allocations.
func TestZeroAllocDomainStep(t *testing.T) {
	de, _ := newStubMachine(1, 4, nil)
	// Warm a full wheel lap so every bucket's backing array exists.
	for de.eng.Now() < 4*wheelSize {
		de.Step()
	}
	avg := testing.AllocsPerRun(500, func() { de.Step() })
	if avg != 0 {
		t.Fatalf("steady-state DomainEngine.Step allocates %.2f allocs/step, want 0", avg)
	}
}
