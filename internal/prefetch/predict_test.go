package prefetch

import (
	"reflect"
	"testing"

	"ulmt/internal/mem"
	"ulmt/internal/table"
)

func repeatSeq(pattern []mem.Line, reps int) []mem.Line {
	out := make([]mem.Line, 0, len(pattern)*reps)
	for i := 0; i < reps; i++ {
		out = append(out, pattern...)
	}
	return out
}

func bigParams(levels int) table.Params {
	return table.Params{NumRows: 1 << 10, Assoc: 4, NumSucc: 4, NumLevels: levels}
}

func TestReplPredictorPerfectOnRepeatingSequence(t *testing.T) {
	// A strictly repeating non-sequential pattern is perfectly
	// predictable at every level once learned.
	pattern := []mem.Line{10, 500, 33, 1200, 77, 3000, 250, 9000}
	trace := repeatSeq(pattern, 50)
	acc := Accuracy(NewReplPredictor(bigParams(3)), trace)
	for k, a := range acc {
		if a < 0.9 {
			t.Errorf("level %d accuracy = %.3f, want > 0.9", k+1, a)
		}
	}
}

func TestBasePredictorLevel1Only(t *testing.T) {
	p := NewBasePredictor(bigParams(1))
	if p.Levels() != 1 {
		t.Fatalf("levels = %d", p.Levels())
	}
	trace := repeatSeq([]mem.Line{1, 2, 3, 4}, 30)
	acc := Accuracy(p, trace)
	if acc[0] < 0.9 {
		t.Errorf("level-1 accuracy = %.3f", acc[0])
	}
}

func TestSeqPredictorOnStream(t *testing.T) {
	p := NewSeqPredictor(4, 3)
	trace := make([]mem.Line, 200)
	for i := range trace {
		trace[i] = mem.Line(1000 + i)
	}
	acc := Accuracy(p, trace)
	if acc[0] < 0.9 {
		t.Errorf("level-1 accuracy on a pure stream = %.3f", acc[0])
	}
}

func TestSeqPredictorBlindToPointerChase(t *testing.T) {
	p := NewSeqPredictor(4, 3)
	pattern := []mem.Line{10, 500, 33, 1200, 77, 3000}
	acc := Accuracy(p, repeatSeq(pattern, 30))
	if acc[0] > 0.05 {
		t.Errorf("sequential predictor should fail on pointer patterns, got %.3f", acc[0])
	}
}

func TestChainVsReplOnBranchyPattern(t *testing.T) {
	// The §3.3.1 sequence family: a,b,c interleaved with b,e,b,f
	// degrades Chain's deep levels but not Replicated's.
	var pattern []mem.Line
	pattern = append(pattern, 1, 2, 3, 900) // a b c ...
	pattern = append(pattern, 2, 5, 2, 6, 901)
	trace := repeatSeq(pattern, 60)

	chainAcc := Accuracy(NewChainPredictor(bigParams(3), 3), trace)
	replAcc := Accuracy(NewReplPredictor(bigParams(3)), trace)
	if replAcc[1] < chainAcc[1] {
		t.Errorf("Repl level-2 (%.3f) should be >= Chain level-2 (%.3f)", replAcc[1], chainAcc[1])
	}
	if replAcc[2] < chainAcc[2] {
		t.Errorf("Repl level-3 (%.3f) should be >= Chain level-3 (%.3f)", replAcc[2], chainAcc[2])
	}
}

func TestCombinedPredictorORs(t *testing.T) {
	// A trace that alternates a sequential burst and a pointer
	// pattern: the combination must beat both parts.
	var pattern []mem.Line
	for i := 0; i < 8; i++ {
		pattern = append(pattern, mem.Line(5000+i))
	}
	pattern = append(pattern, 10, 900, 33, 1200)
	trace := repeatSeq(pattern, 40)

	seq := Accuracy(NewSeqPredictor(4, 3), trace)
	repl := Accuracy(NewReplPredictor(bigParams(3)), trace)
	comb := Accuracy(NewCombinedPredictor("Seq4+Repl",
		NewSeqPredictor(4, 3), NewReplPredictor(bigParams(3))), trace)
	if comb[0] < seq[0] || comb[0] < repl[0] {
		t.Errorf("combined level-1 %.3f must be >= parts (%.3f, %.3f)", comb[0], seq[0], repl[0])
	}
	if got := NewCombinedPredictor("X", NewSeqPredictor(1, 2)).Levels(); got != 2 {
		t.Errorf("combined levels = %d", got)
	}
}

// TestAccuracyOrMatchesCombined pins AccuracyOr to the combined
// predictor it replaces: ORing a recorded Seq4 pass into Base's (one
// level) and Repl's (three levels) passes gives exactly the
// accuracies NewCombinedPredictor measures, and each pass's own
// accuracy equals Accuracy's — on an empty trace too.
func TestAccuracyOrMatchesCombined(t *testing.T) {
	var pattern []mem.Line
	for i := 0; i < 8; i++ {
		pattern = append(pattern, mem.Line(5000+i))
	}
	pattern = append(pattern, 10, 900, 33, 1200)
	for _, trace := range [][]mem.Line{repeatSeq(pattern, 40), nil} {
		seqAcc, seq := Record(NewSeqPredictor(4, 3), trace)
		if want := Accuracy(NewSeqPredictor(4, 3), trace); !reflect.DeepEqual(seqAcc, want) {
			t.Errorf("Record accuracy %v, Accuracy %v", seqAcc, want)
		}
		for _, mk := range []func() Predictor{
			func() Predictor { return NewBasePredictor(bigParams(1)) },
			func() Predictor { return NewReplPredictor(bigParams(3)) },
		} {
			own, comb := AccuracyOr(mk(), trace, seq)
			if want := Accuracy(mk(), trace); !reflect.DeepEqual(own, want) {
				t.Errorf("%s: own accuracy %v, Accuracy %v", mk().Name(), own, want)
			}
			want := Accuracy(NewCombinedPredictor("Seq4+X", NewSeqPredictor(4, 3), mk()), trace)
			if !reflect.DeepEqual(comb, want) {
				t.Errorf("Seq4+%s: AccuracyOr %v, combined predictor %v", mk().Name(), comb, want)
			}
		}
	}
}

func TestAccuracyEmptyTrace(t *testing.T) {
	acc := Accuracy(NewReplPredictor(bigParams(3)), nil)
	for _, a := range acc {
		if a != 0 {
			t.Error("empty trace must yield zero accuracy")
		}
	}
}

func TestPredictorNames(t *testing.T) {
	if NewReplPredictor(bigParams(3)).Name() != "Repl" ||
		NewBasePredictor(bigParams(1)).Name() != "Base" ||
		NewChainPredictor(bigParams(3), 3).Name() != "Chain" ||
		NewSeqPredictor(4, 3).Name() != "Seq4" {
		t.Error("predictor names wrong")
	}
}
