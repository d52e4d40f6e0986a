// Package table implements the software correlation tables the ULMT
// reads and writes: the conventional Joseph–Grunwald organization
// used by the Base and Chain algorithms, and the paper's Replicated
// organization (§3.3).
//
// The tables are ordinary Go data structures, but every operation
// also reports, through a Sink, the simulated memory addresses it
// touches and an estimate of the instructions it executes. The memory
// processor model turns those reports into time using its own cache
// and the DRAM model — which is how the response and occupancy times
// of Fig 10 and the location sensitivity of Fig 8 emerge from the
// implementation instead of being assumed.
//
// Layout: a table occupies a contiguous region of simulated physical
// memory starting at its base address; row i (counting sets × ways,
// row-major) lives at base + i*rowBytes. Row sizes match the paper's
// accounting on a 32-bit machine: 20 bytes for Base (tag + 4
// successors), 12 for Chain (tag + 2 successors), 28 for Replicated
// (tag + 3 levels × 2 successors).
package table

import (
	"fmt"

	"ulmt/internal/mem"
	"ulmt/internal/memproc"
)

// Sink receives the cost of table operations. Implementations must
// tolerate being called many times per operation.
type Sink interface {
	// Touch reports an access of size bytes at a simulated address.
	Touch(addr mem.Addr, size int, write bool)
	// Instr reports n executed instructions.
	Instr(n int)
}

// NullSink discards all cost reports; used by trace-driven predictors
// and sizing runs where timing is irrelevant.
type NullSink struct{}

// Touch implements Sink.
func (NullSink) Touch(mem.Addr, int, bool) {}

// Instr implements Sink.
func (NullSink) Instr(int) {}

// SessionSink is the concrete memory-processor sink of the simulator's
// hot path. The tables' public methods specialize their generic cores
// for *SessionSink and NullSink so the per-way Instr/Touch cost
// reports are direct calls instead of interface dispatch.
type SessionSink = memproc.Session

// LevelView is a caller-owned snapshot of one Replicated row's
// per-level successor lists, filled by ReplTable.Levels. It copies
// instead of aliasing: the snapshot stays valid across later table
// mutations and cannot be used to corrupt packed table state. Reusing
// one view across calls keeps steady-state lookups allocation-free.
type LevelView struct {
	lines  []mem.Line
	counts []uint8
	levels int
	stride int
}

// ensure sizes the backing arrays for nl levels of ns successors,
// reusing capacity when possible.
func (v *LevelView) ensure(nl, ns int) {
	if cap(v.lines) < nl*ns {
		v.lines = make([]mem.Line, nl*ns)
	} else {
		v.lines = v.lines[:nl*ns]
	}
	if cap(v.counts) < nl {
		v.counts = make([]uint8, nl)
	} else {
		v.counts = v.counts[:nl]
	}
	v.levels = nl
	v.stride = ns
}

// NumLevels returns the number of levels captured by the last Levels
// call, zero when it missed.
func (v *LevelView) NumLevels() int { return v.levels }

// Level returns the MRU-ordered successors recorded at level i
// (level 0 holds immediate successors). The slice is owned by the
// view and valid until the next Levels call that fills it.
func (v *LevelView) Level(i int) []mem.Line {
	return v.lines[i*v.stride : i*v.stride+int(v.counts[i])]
}

// Instruction-cost constants for the hand-optimized ULMT inner loops.
// The paper's ULMTs were written in C with unrolled loops and
// hardwired parameters (§4 "ULMT Implementation"); these constants
// model that code at the granularity the timing model needs. They are
// deliberately coarse — the measured quantity is tens of instructions
// per miss, and Fig 10's conclusions depend on relative magnitudes
// (Repl's single-row prefetch step vs Chain's repeated searches), not
// on exact counts.
const (
	// InstrProbeWay is the cost of checking one way's tag during an
	// associative search (load, compare, predicted branch).
	InstrProbeWay = 2
	// InstrReadSucc is the cost of reading one successor and issuing
	// a prefetch request for it (load, store to queue).
	InstrReadSucc = 2
	// InstrInsertSucc is the cost of inserting one address into an
	// MRU list (compare, shift, store) with the loop unrolled.
	InstrInsertSucc = 3
	// InstrAllocRow is the extra cost of allocating/replacing a row
	// (tag store, initialization).
	InstrAllocRow = 4
	// InstrLoop is per-miss loop overhead of the ULMT (queue pop,
	// dispatch, bookkeeping).
	InstrLoop = 6
)

// Params configures a correlation table and its algorithm.
type Params struct {
	// NumRows is the total number of rows (sets × ways), a power of
	// two in this implementation.
	NumRows int
	// Assoc is the number of ways per set.
	Assoc int
	// NumSucc is the successors stored per row (per level for
	// Replicated).
	NumSucc int
	// NumLevels is the number of successor levels (Chain, Replicated).
	NumLevels int
}

// Validate checks the geometry.
func (p Params) Validate() error {
	if p.NumRows <= 0 || p.Assoc <= 0 || p.NumSucc <= 0 {
		return fmt.Errorf("table: NumRows, Assoc, NumSucc must be positive")
	}
	if p.NumRows%p.Assoc != 0 {
		return fmt.Errorf("table: NumRows %d not divisible by Assoc %d", p.NumRows, p.Assoc)
	}
	sets := p.NumRows / p.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("table: set count %d must be a power of two", sets)
	}
	if p.NumLevels < 0 {
		return fmt.Errorf("table: NumLevels must be non-negative")
	}
	return nil
}

// BaseParams returns the paper's Table 4 parameters for Base with the
// given row count: NumSucc=4, Assoc=4.
func BaseParams(numRows int) Params {
	return Params{NumRows: numRows, Assoc: 4, NumSucc: 4, NumLevels: 1}
}

// ChainParams returns Table 4's Chain parameters: NumSucc=2, Assoc=2,
// NumLevels=3.
func ChainParams(numRows int) Params {
	return Params{NumRows: numRows, Assoc: 2, NumSucc: 2, NumLevels: 3}
}

// ReplParams returns Table 4's Replicated parameters: NumSucc=2,
// Assoc=2, NumLevels=3.
func ReplParams(numRows int) Params {
	return Params{NumRows: numRows, Assoc: 2, NumSucc: 2, NumLevels: 3}
}

// Stats counts table activity, including the replacement statistics
// Table 2's sizing rule is defined over.
type Stats struct {
	Lookups      uint64
	LookupHits   uint64
	Insertions   uint64 // rows allocated (first-time or replacing)
	Replacements uint64 // allocations that evicted a valid row
	SuccUpdates  uint64 // successor-list insertions
}

// ReplacementRate returns Replacements/Insertions, the quantity the
// paper holds under 5% when sizing NumRows.
func (s Stats) ReplacementRate() float64 {
	if s.Insertions == 0 {
		return 0
	}
	return float64(s.Replacements) / float64(s.Insertions)
}

// tagWordBytes is the size of a row's tag field on the modeled 32-bit
// machine.
const tagWordBytes = 4

// succWordBytes is the size of one stored successor address.
const succWordBytes = 4
