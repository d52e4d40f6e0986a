package prefetch

import (
	"ulmt/internal/mem"
	"ulmt/internal/table"
)

// Predictor measures how well an algorithm predicts a miss stream
// without performing any prefetching — the methodology of Fig 5 ("we
// run each ULMT algorithm simply observing all L2 cache miss
// addresses without performing prefetching", §5.1). A prediction made
// after miss i at level k is correct when miss i+k matches one of the
// level-k addresses.
type Predictor interface {
	Name() string
	Levels() int
	// Consume processes the next miss and returns, for each level
	// k (index k-1), whether this miss was predicted k misses ago.
	Consume(m mem.Line) []bool
}

// tracked implements the bookkeeping shared by all predictors: a ring
// of the last Levels prediction sets.
type tracked struct {
	name   string
	levels int
	// hist[d] holds the per-level predictions made d+1 misses ago.
	hist [][][]mem.Line
	// learn folds the miss into the underlying model; predict then
	// returns the per-level predictions for the upcoming misses.
	learn   func(m mem.Line)
	predict func(m mem.Line) [][]mem.Line
	scratch []bool
	// retire, when set, recycles the underlying table's arena; see
	// RecyclePredictor.
	retire func()
}

func newTracked(name string, levels int, learn func(mem.Line), predict func(mem.Line) [][]mem.Line) *tracked {
	return &tracked{
		name:    name,
		levels:  levels,
		hist:    make([][][]mem.Line, levels),
		learn:   learn,
		predict: predict,
		scratch: make([]bool, levels),
	}
}

// Name implements Predictor.
func (t *tracked) Name() string { return t.name }

// Levels implements Predictor.
func (t *tracked) Levels() int { return t.levels }

// Consume implements Predictor.
func (t *tracked) Consume(m mem.Line) []bool {
	for k := 1; k <= t.levels; k++ {
		t.scratch[k-1] = false
		preds := t.hist[k-1] // made k misses ago
		if preds == nil || len(preds) < k {
			continue
		}
		for _, cand := range preds[k-1] {
			if cand == m {
				t.scratch[k-1] = true
				break
			}
		}
	}
	t.learn(m)
	p := t.predict(m)
	// Shift history: predictions made k misses ago become k+1. The
	// slot falling off the end is recycled as the clone target, so the
	// per-miss bookkeeping allocates nothing in steady state.
	old := t.hist[t.levels-1]
	copy(t.hist[1:], t.hist)
	t.hist[0] = clonePredsInto(old, p)
	return t.scratch
}

// clonePredsInto copies p into dst, reusing dst's backing arrays.
func clonePredsInto(dst, p [][]mem.Line) [][]mem.Line {
	if cap(dst) < len(p) {
		dst = append(dst[:cap(dst)], make([][]mem.Line, len(p)-cap(dst))...)
	}
	dst = dst[:len(p)]
	for i, lv := range p {
		dst[i] = append(dst[i][:0], lv...)
	}
	return dst
}

// NewBasePredictor predicts only the immediate successor level using
// the conventional table.
func NewBasePredictor(p table.Params) Predictor {
	t := table.NewBase(p, 0)
	var sink table.NullSink
	tr := newTracked("Base", 1,
		func(m mem.Line) { t.Learn(m, sink) },
		func(m mem.Line) [][]mem.Line {
			return [][]mem.Line{t.Successors(m, sink)}
		})
	tr.retire = t.Recycle
	return tr
}

// NewChainPredictor predicts levels by walking the MRU path, like the
// Chain prefetching step.
func NewChainPredictor(p table.Params, levels int) Predictor {
	t := table.NewBase(p, 0)
	var sink table.NullSink
	out := make([][]mem.Line, levels)
	tr := newTracked("Chain", levels,
		func(m mem.Line) { t.Learn(m, sink) },
		func(m mem.Line) [][]mem.Line {
			// out is reused across calls (Consume clones it before the
			// next predict); levels past the chain break stay nil.
			for i := range out {
				out[i] = nil
			}
			cur := m
			for k := 0; k < levels; k++ {
				succ := t.Successors(cur, sink)
				if len(succ) == 0 {
					break
				}
				out[k] = succ
				cur = succ[0]
			}
			return out
		})
	tr.retire = t.Recycle
	return tr
}

// NewReplPredictor predicts each level from the true-MRU per-level
// lists of the Replicated table.
func NewReplPredictor(p table.Params) Predictor {
	t := table.NewRepl(p, 0)
	var sink table.NullSink
	var view table.LevelView
	out := make([][]mem.Line, p.NumLevels)
	tr := newTracked("Repl", p.NumLevels,
		func(m mem.Line) { t.Learn(m, sink) },
		func(m mem.Line) [][]mem.Line {
			if !t.LevelsAlias(m, sink, &view) {
				return nil
			}
			// The aliased level slices stay valid until the next Learn;
			// Consume clones them immediately after predict returns.
			for i := range out {
				out[i] = view.Level(i)
			}
			return out
		})
	tr.retire = t.Recycle
	return tr
}

// NewSeqPredictor predicts level k as "k lines further along each
// active stream": for a sequential prefetcher a prediction is correct
// when "the upcoming miss address matches the next address predicted
// by one of the streams identified" (§5.1).
func NewSeqPredictor(numSeq, levels int) Predictor {
	q, err := NewSeq(numSeq, 6, 0)
	if err != nil {
		// Predictors are offline analysis tooling; constructing one
		// with a nonsensical stream count is a programming error.
		panic(err)
	}
	var sink table.NullSink
	discard := func(mem.Line) {}
	out := make([][]mem.Line, levels)
	return newTracked(q.Name(), levels,
		func(m mem.Line) {
			// Prefetch advances matching streams; Learn runs stream
			// detection. Both charge the null sink.
			q.Prefetch(m, sink, discard)
			q.Learn(m, sink)
		},
		func(m mem.Line) [][]mem.Line {
			// out is reused across calls (Consume clones it before the
			// next predict).
			for k := 0; k < levels; k++ {
				out[k] = out[k][:0]
				for i := range q.streams {
					r := &q.streams[i]
					if r.valid {
						out[k] = append(out[k], mem.Line(int64(r.expected)+int64(k)*r.stride))
					}
				}
			}
			return out
		})
}

// orPredictor combines predictors: a level is correct when any
// component predicted it, modeling combinations like Seq4+Repl.
type orPredictor struct {
	name    string
	subs    []Predictor
	lv      int
	scratch []bool
}

// NewCombinedPredictor ORs the given predictors.
func NewCombinedPredictor(name string, subs ...Predictor) Predictor {
	lv := 0
	for _, s := range subs {
		if s.Levels() > lv {
			lv = s.Levels()
		}
	}
	return &orPredictor{name: name, subs: subs, lv: lv, scratch: make([]bool, lv)}
}

// Name implements Predictor.
func (o *orPredictor) Name() string { return o.name }

// Levels implements Predictor.
func (o *orPredictor) Levels() int { return o.lv }

// Consume implements Predictor.
func (o *orPredictor) Consume(m mem.Line) []bool {
	out := o.scratch
	for i := range out {
		out[i] = false
	}
	for _, s := range o.subs {
		for k, ok := range s.Consume(m) {
			if ok {
				out[k] = true
			}
		}
	}
	return out
}

// RecyclePredictor retires a predictor's correlation table (if it has
// one), returning the successor arena to the table package's pool.
// The predictor is unusable afterwards.
func RecyclePredictor(p Predictor) {
	switch q := p.(type) {
	case *tracked:
		if q.retire != nil {
			q.retire()
		}
	case *orPredictor:
		for _, s := range q.subs {
			RecyclePredictor(s)
		}
	}
}

// Accuracy runs a predictor over a miss trace and returns the
// fraction of misses correctly predicted at each level — one Fig 5
// bar group.
func Accuracy(p Predictor, trace []mem.Line) []float64 {
	own, _ := measure(p, trace, nil, nil)
	return own
}

// HitSet records which misses of a trace a predictor predicted, per
// level: bit i*levels+k is set when miss i was predicted at level k+1.
// It lets a later pass measure "this predictor OR that one" without
// running the recorded predictor again (AccuracyOr).
type HitSet struct {
	levels int
	bits   []uint64
}

func (h *HitSet) set(i int)      { h.bits[i>>6] |= 1 << (i & 63) }
func (h *HitSet) has(i int) bool { return h.bits[i>>6]&(1<<(i&63)) != 0 }

// Record is Accuracy that also returns p's per-miss, per-level hits.
func Record(p Predictor, trace []mem.Line) ([]float64, *HitSet) {
	lv := p.Levels()
	rec := &HitSet{levels: lv, bits: make([]uint64, (len(trace)*lv+63)/64)}
	acc, _ := measure(p, trace, nil, rec)
	return acc, rec
}

// AccuracyOr runs p over trace once and returns both p's own accuracy
// (what Accuracy returns) and the accuracy of p ORed with a recorded
// pass over the same trace: bit for bit what NewCombinedPredictor of
// the recorded predictor and p measures, since the combined
// predictor's components consume the trace independently.
func AccuracyOr(p Predictor, trace []mem.Line, prior *HitSet) (own, combined []float64) {
	return measure(p, trace, prior, nil)
}

// measure is the pass behind Accuracy, Record and AccuracyOr: it
// counts p's correct predictions per level, records them into rec
// when non-nil, and counts them ORed with prior's when prior is
// non-nil.
func measure(p Predictor, trace []mem.Line, prior, rec *HitSet) (own, combined []float64) {
	lv := p.Levels()
	clv := lv
	if prior != nil && prior.levels > clv {
		clv = prior.levels
	}
	correct := make([]uint64, lv)
	either := make([]uint64, clv)
	for i, m := range trace {
		hit := p.Consume(m)
		for k := 0; k < clv; k++ {
			ok := k < lv && hit[k]
			if ok {
				correct[k]++
				if rec != nil {
					rec.set(i*lv + k)
				}
			}
			if ok || prior != nil && k < prior.levels && prior.has(i*prior.levels+k) {
				either[k]++
			}
		}
	}
	own = fractions(correct, len(trace))
	if prior != nil {
		combined = fractions(either, len(trace))
	}
	return own, combined
}

// fractions divides per-level counts by the trace length (all zeros
// for an empty trace).
func fractions(counts []uint64, n int) []float64 {
	out := make([]float64, len(counts))
	if n == 0 {
		return out
	}
	for k := range out {
		out[k] = float64(counts[k]) / float64(n)
	}
	return out
}
