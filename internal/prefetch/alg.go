// Package prefetch implements every prefetching algorithm the paper
// evaluates (Table 4):
//
//   - Base, Chain, Replicated — pair-based correlation algorithms run
//     by the ULMT on the software tables of internal/table;
//   - Seq1, Seq4 — sequential prefetching implemented in software as
//     a ULMT algorithm, observing L2 misses;
//   - Conven4 — the conventional processor-side hardware multi-stream
//     sequential prefetcher that monitors L1 misses;
//   - combinations (Seq4+Repl, Seq1+Repl for the CG customization)
//     and parameter customizations (Repl with NumLevels=4).
//
// A ULMT algorithm is split into the two steps of the paper's
// infinite loop (Fig 2): the Prefetching step, whose duration is the
// response time, and the Learning step, which completes the occupancy
// time. The memory processor model runs Prefetch first, deposits the
// emitted addresses, then runs Learn — "we always execute the
// Prefetching step before the Learning one" (§3.1).
package prefetch

import (
	"fmt"

	"ulmt/internal/mem"
	"ulmt/internal/table"
)

// Algorithm is a ULMT correlation-prefetching algorithm. Every call
// reports its cost through the Sink; the emit callback receives
// prefetch line addresses in priority order (most valuable first).
//
// This is also the customization surface of the paper (§3.3.3): users
// provide their own Algorithm to run in the ULMT.
type Algorithm interface {
	Name() string
	Prefetch(m mem.Line, s table.Sink, emit func(mem.Line))
	Learn(m mem.Line, s table.Sink)
}

// Base runs the conventional pair-based algorithm (Fig 4-(a)): on a
// miss, prefetch the NumSucc recorded immediate successors.
type Base struct {
	T *table.BaseTable
}

// NewBase wraps a Base-organized table.
func NewBase(t *table.BaseTable) *Base { return &Base{T: t} }

// Name implements Algorithm.
func (b *Base) Name() string { return "Base" }

// Prefetch implements Algorithm.
func (b *Base) Prefetch(m mem.Line, s table.Sink, emit func(mem.Line)) {
	s.Instr(table.InstrLoop)
	for _, l := range b.T.Successors(m, s) {
		emit(l)
	}
}

// Learn implements Algorithm.
func (b *Base) Learn(m mem.Line, s table.Sink) { b.T.Learn(m, s) }

// Chain runs the Chain algorithm (Fig 4-(b)): prefetch the row of
// immediate successors, then follow the MRU successor's row for
// NumLevels-1 further lookups. Each lookup is an associative search
// and possibly extra cache misses, which is why Chain's response time
// is high (Table 1).
type Chain struct {
	T         *table.BaseTable
	NumLevels int
}

// NewChain wraps a Chain-parameterized table.
func NewChain(t *table.BaseTable, numLevels int) (*Chain, error) {
	if numLevels < 1 {
		return nil, fmt.Errorf("prefetch: Chain needs NumLevels >= 1, got %d", numLevels)
	}
	return &Chain{T: t, NumLevels: numLevels}, nil
}

// Name implements Algorithm.
func (c *Chain) Name() string { return "Chain" }

// Prefetch implements Algorithm.
func (c *Chain) Prefetch(m mem.Line, s table.Sink, emit func(mem.Line)) {
	s.Instr(table.InstrLoop)
	cur := m
	for level := 0; level < c.NumLevels; level++ {
		succ := c.T.Successors(cur, s)
		if len(succ) == 0 {
			return
		}
		for _, l := range succ {
			emit(l)
		}
		// Follow the MRU path only — the source of Chain's
		// inaccuracy at deeper levels (§3.3.1).
		cur = succ[0]
	}
}

// Learn implements Algorithm.
func (c *Chain) Learn(m mem.Line, s table.Sink) { c.T.Learn(m, s) }

// Repl runs the Replicated algorithm (Fig 4-(c)): a single row access
// yields true-MRU successors for every level; learning updates
// NumLevels rows through the last-miss pointers.
type Repl struct {
	T *table.ReplTable
	// view is reused across prefetch steps. It holds aliases into the
	// table's packed row (LevelsAlias), which is safe because Prefetch
	// drains it through emit before returning — nothing mutates the
	// table mid-step.
	view table.LevelView
}

// NewRepl wraps a Replicated table.
func NewRepl(t *table.ReplTable) *Repl { return &Repl{T: t} }

// Name implements Algorithm.
func (r *Repl) Name() string { return "Repl" }

// Prefetch implements Algorithm.
func (r *Repl) Prefetch(m mem.Line, s table.Sink, emit func(mem.Line)) {
	s.Instr(table.InstrLoop)
	if !r.T.LevelsAlias(m, s, &r.view) {
		return
	}
	for i := 0; i < r.view.NumLevels(); i++ {
		for _, l := range r.view.Level(i) {
			emit(l)
		}
	}
}

// Learn implements Algorithm.
func (r *Repl) Learn(m mem.Line, s table.Sink) { r.T.Learn(m, s) }

// RowKey folds a miss line to the table set it trains, the aliasing
// granularity at which distinct miss streams interact in a shared
// table. Consumers (the sharded ULMT's cross-core attribution) key
// row ownership on it.
func (r *Repl) RowKey(m mem.Line) uint64 { return r.T.SetOf(m) }

// RowKeys is the number of distinct RowKey values: the table's set
// count.
func (r *Repl) RowKeys() int {
	p := r.T.Params()
	return p.NumRows / p.Assoc
}

// Combined chains two ULMT algorithms, running First's steps before
// Second's. The CG customization of Table 5 is
// Combined{Seq1, Repl} in Verbose mode.
type Combined struct {
	First, Second Algorithm
}

// Name implements Algorithm.
func (c *Combined) Name() string { return c.First.Name() + "+" + c.Second.Name() }

// Prefetch implements Algorithm.
func (c *Combined) Prefetch(m mem.Line, s table.Sink, emit func(mem.Line)) {
	c.First.Prefetch(m, s, emit)
	c.Second.Prefetch(m, s, emit)
}

// Learn implements Algorithm.
func (c *Combined) Learn(m mem.Line, s table.Sink) {
	c.First.Learn(m, s)
	c.Second.Learn(m, s)
}

// Func adapts plain functions to Algorithm, the lightest way for a
// user to supply a custom ULMT (examples/custom uses it).
type Func struct {
	AlgName    string
	OnPrefetch func(m mem.Line, s table.Sink, emit func(mem.Line))
	OnLearn    func(m mem.Line, s table.Sink)
}

// Name implements Algorithm.
func (f *Func) Name() string { return f.AlgName }

// Prefetch implements Algorithm.
func (f *Func) Prefetch(m mem.Line, s table.Sink, emit func(mem.Line)) {
	if f.OnPrefetch != nil {
		f.OnPrefetch(m, s, emit)
	}
}

// Learn implements Algorithm.
func (f *Func) Learn(m mem.Line, s table.Sink) {
	if f.OnLearn != nil {
		f.OnLearn(m, s)
	}
}

// RecycleTables retires an algorithm's correlation tables, returning
// their successor arenas to the table package's pool for a future
// same-geometry build. Call only when the algorithm (and any machine
// holding it) is finished; the tables are unusable afterwards.
func RecycleTables(a Algorithm) {
	switch alg := a.(type) {
	case *Base:
		alg.T.Recycle()
	case *Chain:
		alg.T.Recycle()
	case *Repl:
		alg.T.Recycle()
	case *Combined:
		RecycleTables(alg.First)
		RecycleTables(alg.Second)
	}
}
