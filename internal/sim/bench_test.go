package sim

import "testing"

func BenchmarkEngineChain(b *testing.B) {
	e := NewEngine()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			e.After(1, chain)
		}
	}
	e.At(0, chain)
	e.Run()
}

func BenchmarkEngineFanOut(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.At(Cycle(i%1024), func() {})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineTypedChain is the zero-allocation steady state: a
// long-lived actor rescheduling itself through the typed API.
func BenchmarkEngineTypedChain(b *testing.B) {
	e := NewEngine()
	a := &benchActor{eng: e, d: 1, limit: b.N}
	e.Schedule(0, a, 1, Event{})
	e.Run()
}

type benchActor struct {
	eng   *Engine
	d     Cycle
	n     int
	limit int
}

func (a *benchActor) Fire(kind Kind, ev Event) {
	a.n++
	if a.n < a.limit {
		a.eng.ScheduleAfter(a.d, a, kind, ev)
	}
}

// mixedHorizons is the latency profile of a real run: mostly cache
// and bus latencies, some DRAM, occasional ULMT sessions, and rare
// far-future events that exercise the overflow heap.
var mixedHorizons = [16]Cycle{
	1, 3, 2, 19, 5, 146, 1, 40, 2, 181, 3, 3000, 1, 19, 5, 120000,
}

// BenchmarkEngineMixedHorizon schedules through the full horizon mix,
// including overflow spills and window advances.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	e := NewEngine()
	a := &mixedActor{eng: e, limit: b.N}
	e.Schedule(0, a, 0, Event{})
	e.Run()
}

type mixedActor struct {
	eng   *Engine
	n     int
	limit int
}

func (a *mixedActor) Fire(kind Kind, ev Event) {
	a.n++
	if a.n < a.limit {
		a.eng.ScheduleAfter(mixedHorizons[a.n&15], a, kind, ev)
	}
}

// BenchmarkEngineMixedHorizonHeap is the same mix on the legacy
// container/heap backend, for before/after comparison.
func BenchmarkEngineMixedHorizonHeap(b *testing.B) {
	e := NewEngineWithKernel(KernelHeap)
	a := &mixedActor{eng: e, limit: b.N}
	e.Schedule(0, a, 0, Event{})
	e.Run()
}

// BenchmarkEngineFanOutTyped replays the fan-out shape without the
// closure shim.
func BenchmarkEngineFanOutTyped(b *testing.B) {
	e := NewEngine()
	var a sinkActor
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycle(i%1024), &a, 0, Event{})
	}
	b.ResetTimer()
	e.Run()
}

type sinkActor struct{ n int }

func (a *sinkActor) Fire(kind Kind, ev Event) { a.n++ }

// proxies records the deterministic per-op proxies a benchmark
// reports next to ns/op: events fired, and heap allocations through
// ReportAllocs.
type proxies struct {
	b     *testing.B
	eng   *Engine
	fired uint64
}

// startProxies snapshots the event count and resets the timer; call
// it right before the timed loop.
func startProxies(b *testing.B, eng *Engine) proxies {
	b.ReportAllocs()
	b.ResetTimer()
	return proxies{b: b, eng: eng, fired: eng.Fired()}
}

// report stops the timer and reports events/op.
func (p proxies) report() {
	p.b.StopTimer()
	p.b.ReportMetric(float64(p.eng.Fired()-p.fired)/float64(p.b.N), "events/op")
}

// BenchmarkDomainEngineStep measures the windowed schedule's per-step
// overhead over 4 domains. all-stalled: no domain is armed, so every
// step is a queue event (a core waiting on the memory system).
// one-armed: one domain is armed beyond the queue's reach, so every
// step compares the queue head against the armed minimum.
func BenchmarkDomainEngineStep(b *testing.B) {
	for _, tc := range []struct {
		name  string
		armed bool
	}{{"all-stalled", false}, {"one-armed", true}} {
		b.Run(tc.name, func(b *testing.B) {
			de, doms := newStubMachine(1, 4, nil)
			for _, d := range doms {
				de.disarm(d.idx)
				d.armed = false
			}
			if tc.armed {
				doms[0].armed, doms[0].at = true, Forever
				de.Arm(0, Forever)
			}
			a := &selfActor{eng: de.eng, d: 3}
			de.eng.Schedule(0, a, 1, Event{})
			for i := 0; i < wheelSize; i++ {
				de.Step()
			}
			p := startProxies(b, de.eng)
			for i := 0; i < b.N; i++ {
				de.Step()
			}
			p.report()
		})
	}
}

// backlogServer is the sharded ULMT's time pattern: observations
// arrive every few cycles and a FIFO time server books a session for
// each, depositing its result when the session's response is ready —
// so deposits land as far ahead as the server's backlog. The service
// time alternates between outrunning and trailing the arrival rate,
// sweeping the backlog between 4K and 64K cycles.
type backlogServer struct {
	eng    *Engine
	freeAt Cycle
	occ    Cycle
}

const (
	backlogArrive Kind = iota
	backlogDeposit
)

func (s *backlogServer) Fire(kind Kind, ev Event) {
	if kind == backlogDeposit {
		return
	}
	now := s.eng.Now()
	s.eng.ScheduleAfter(4, s, backlogArrive, Event{})
	begin := now
	if s.freeAt > begin {
		begin = s.freeAt
	}
	switch backlog := begin - now; {
	case backlog > 64<<10:
		s.occ = 2
	case backlog < 4<<10:
		s.occ = 8
	}
	s.freeAt = begin + s.occ
	s.eng.Schedule(begin+s.occ/2, s, backlogDeposit, Event{})
}

// BenchmarkEngineBacklog schedules the shard backlog pattern: every
// deposit lands 4K–64K cycles ahead, in the wheel's far level.
func BenchmarkEngineBacklog(b *testing.B) {
	e := NewEngine()
	s := &backlogServer{eng: e, occ: 8}
	e.Schedule(0, s, backlogArrive, Event{})
	// Warm a full far-level lap, so every span has its backing array.
	for e.Now() < farSpans*spanSize+1<<17 {
		e.Step()
	}
	p := startProxies(b, e)
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	p.report()
}
