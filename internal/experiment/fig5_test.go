package experiment

import (
	"reflect"
	"testing"

	"ulmt/internal/prefetch"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

// TestFig5DerivedMatchesCombined pins the five-pass Fig 5 derivation:
// for every app, Seq4+Base and Seq4+Repl — derived by ORing Seq4's
// recorded hits into the Base and Repl passes — equal what the
// combined predictor measures over the same trace, and the rows are
// the same whether Fig5 fans out over 1 or 4 workers.
func TestFig5DerivedMatchesCombined(t *testing.T) {
	fig5At := func(jobs int) ([]Fig5Row, *Runner) {
		r := NewRunner(Options{Scale: workload.ScaleTiny, Seed: 1, Jobs: jobs})
		return r.Fig5(), r
	}
	serial, r := fig5At(1)
	if parallel, _ := fig5At(4); !reflect.DeepEqual(parallel, serial) {
		t.Errorf("Fig5 at -j 4 differs from -j 1:\n got %+v\nwant %+v", parallel, serial)
	}
	if len(serial) != len(workload.Names()) {
		t.Fatalf("Fig5 has %d rows, want one per app (%d)", len(serial), len(workload.Names()))
	}

	const levels = 3
	big := table.Params{NumRows: r.predictorRows(), Assoc: 4, NumSucc: 4, NumLevels: levels}
	oracle := map[string]func() prefetch.Predictor{
		"Seq4+Base": func() prefetch.Predictor {
			return prefetch.NewCombinedPredictor("Seq4+Base",
				prefetch.NewSeqPredictor(4, levels), prefetch.NewBasePredictor(big))
		},
		"Seq4+Repl": func() prefetch.Predictor {
			return prefetch.NewCombinedPredictor("Seq4+Repl",
				prefetch.NewSeqPredictor(4, levels), prefetch.NewReplPredictor(big))
		},
	}
	for _, row := range serial {
		tr := r.MissTrace(row.App)
		for alg, mk := range oracle {
			p := mk()
			want := prefetch.Accuracy(p, tr)
			prefetch.RecyclePredictor(p)
			if got := row.Acc[alg]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: derived %v, combined predictor %v", row.App, alg, got, want)
			}
		}
	}
}
