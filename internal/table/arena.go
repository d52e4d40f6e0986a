package table

import (
	"sort"
	"sync"
	"unsafe"

	"ulmt/internal/budget"
	"ulmt/internal/mem"
)

// Successor-arena recycling. The arena is the dominant allocation of a
// Table 2 instance (NumRows*NumLevels*NumSucc words — hundreds of
// megabytes at the large geometries), and an experiment matrix builds
// dozens of same-geometry tables back to back; zeroing each fresh
// arena was the single largest flat cost in whole-run profiles.
//
// Recycled arenas are reused DIRTY. That is safe by the same argument
// that lets Reset leave the arena untouched: every successor read is
// bounded by the per-row occupancy counts (cnt), which a recycled
// table starts with zeroed, so stale words beyond cnt are never
// observable through the table's API. The snapshot codec does
// serialize the full arena, so two checkpoints of behaviorally
// identical tables may differ in their unreachable bytes — the
// restored table is still behaviorally identical, which is what every
// resume oracle compares.
//
// The pool only fills through explicit Recycle calls (the experiment
// runner retires a machine's tables once its results are extracted),
// so code that never recycles sees fresh zeroed allocations, exactly
// as before.
//
// Retention is budgeted: with a budget.Ledger installed via
// SetArenaBudget, every byte PARKED in the pool is reserved against
// it. The ledger deliberately tracks only retained memory — bytes the
// process holds beyond what a budgetless run would — so live arenas
// (which the simulation needs regardless of any budget) never touch
// it: a recycled arena's reservation is released the moment it goes
// live, and a fresh allocation reserves nothing. Parking an arena the
// ledger cannot afford first evicts LARGER pooled arenas (they are
// the ones that keep peak heap high) and, if room still cannot be
// made, drops the arena to the GC instead of retaining it — correct,
// only slower on the next same-geometry build. Without a ledger the
// pool is unbounded, exactly the pre-budget behavior.
var arenaPool struct {
	mu     sync.Mutex
	byLen  map[int][][]mem.Line
	pooled int64 // bytes currently parked in byLen
	ledger *budget.Ledger
}

// lineBytes is the ledger accounting unit: the size of one arena word.
const lineBytes = int64(unsafe.Sizeof(mem.Line(0)))

// SetArenaBudget installs (or, with nil, removes) the retained-memory
// ledger the arena pool reserves against. The pool registers itself
// as a reclaimer on the ledger, so any other budgeted subsystem that
// runs short evicts pooled arenas largest-first. Installing a ledger
// is process-global, like the pool itself; callers that swap ledgers
// (tests) should FlushArenaPool first so reservations never straddle
// two ledgers.
func SetArenaBudget(l *budget.Ledger) {
	arenaPool.mu.Lock()
	arenaPool.ledger = l
	arenaPool.mu.Unlock()
	l.AddReclaimer(evictPooled)
}

// evictPooled drops pooled arenas, largest length first, until need
// bytes have been released (or the pool is empty), returning the
// bytes actually freed. It is the pool's budget.Ledger reclaimer and
// is also used directly to trim after an over-budget put.
func evictPooled(need int64) int64 {
	arenaPool.mu.Lock()
	lengths := make([]int, 0, len(arenaPool.byLen))
	for n := range arenaPool.byLen {
		lengths = append(lengths, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	var freed int64
	for _, n := range lengths {
		frees := arenaPool.byLen[n]
		for len(frees) > 0 && freed < need {
			frees = frees[:len(frees)-1]
			freed += int64(n) * lineBytes
		}
		if len(frees) == 0 {
			delete(arenaPool.byLen, n)
		} else {
			arenaPool.byLen[n] = frees
		}
		if freed >= need {
			break
		}
	}
	arenaPool.pooled -= freed
	ledger := arenaPool.ledger
	arenaPool.mu.Unlock()
	ledger.Release(freed)
	return freed
}

// newArena returns a zero-length-history arena of exactly n words:
// recycled when one of that length is pooled, freshly allocated
// otherwise. Taking a recycled arena live releases its retention
// reservation; a fresh allocation is live memory the simulation needs
// either way and reserves nothing.
func newArena(n int) []mem.Line {
	arenaPool.mu.Lock()
	if frees := arenaPool.byLen[n]; len(frees) > 0 {
		a := frees[len(frees)-1]
		arenaPool.byLen[n] = frees[:len(frees)-1]
		arenaPool.pooled -= int64(n) * lineBytes
		ledger := arenaPool.ledger
		arenaPool.mu.Unlock()
		ledger.Release(int64(n) * lineBytes)
		return a
	}
	arenaPool.mu.Unlock()
	return make([]mem.Line, n)
}

func putArena(a []mem.Line) {
	if len(a) == 0 {
		return
	}
	arenaPool.mu.Lock()
	ledger := arenaPool.ledger
	arenaPool.mu.Unlock()
	// Reserve outside the pool lock: making room re-enters the pool
	// through the eviction reclaimer (which prefers evicting larger
	// parked arenas over declining this one). A declined reservation
	// means the budget is better spent on what is already parked —
	// drop the arena to the GC instead of retaining it.
	if !ledger.Reserve(int64(len(a)) * lineBytes) {
		return
	}
	arenaPool.mu.Lock()
	if arenaPool.byLen == nil {
		arenaPool.byLen = make(map[int][][]mem.Line)
	}
	arenaPool.byLen[len(a)] = append(arenaPool.byLen[len(a)], a)
	arenaPool.pooled += int64(len(a)) * lineBytes
	arenaPool.mu.Unlock()
}

// PooledArenaBytes reports the bytes currently parked in the pool
// (not live in any table), for tests and budget accounting.
func PooledArenaBytes() int64 {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	return arenaPool.pooled
}

// FlushArenaPool drops every pooled arena, releasing the memory to
// the GC (and its reservation to the installed ledger). Subsequent
// builds allocate fresh zeroed arenas, which is also what a caller
// needs before comparing two tables byte-for-byte (a recycled arena
// carries unobservable stale words).
func FlushArenaPool() {
	arenaPool.mu.Lock()
	freed := arenaPool.pooled
	arenaPool.byLen = nil
	arenaPool.pooled = 0
	ledger := arenaPool.ledger
	arenaPool.mu.Unlock()
	ledger.Release(freed)
}

// Recycle returns the table's successor arena to the process-wide
// pool for a future same-geometry build. The table must not be used
// afterwards.
func (t *BaseTable) Recycle() {
	putArena(t.succ)
	t.succ = nil
}

// Recycle returns the table's successor arena to the process-wide
// pool for a future same-geometry build. The table must not be used
// afterwards.
func (t *ReplTable) Recycle() {
	putArena(t.succ)
	t.succ = nil
}
