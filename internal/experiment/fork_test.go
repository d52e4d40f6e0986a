package experiment

import (
	"reflect"
	"testing"

	"ulmt/internal/core"
	"ulmt/internal/workload"
)

// forkFollowerLabels are the labels that share a Repl leader's app in
// the run matrix: every ablation plus every sweep point, the two
// identity aliases among them.
var forkFollowerLabels = []string{
	AblLearnFirst, AblNoCrossMatch, AblNoFilter, AblDropPushes,
	AblNoPointers, AblAdaptive,
	SweepLevelsLabel(1), SweepLevelsLabel(2), SweepLevelsLabel(3),
	SweepLevelsLabel(4), SweepRowsLabel("*4"), SweepRowsLabel("*1"),
	SweepRowsLabel("/4"),
}

// forkDiffOptions is the tiny-scale single-app matrix the fork
// differential tests run on.
func forkDiffOptions(noFork bool) Options {
	return Options{
		Scale:  workload.ScaleTiny,
		Apps:   []string{"Mcf"},
		Seed:   1,
		NoFork: noFork,
	}
}

// scratchResult computes a label's results with aliasing disabled —
// the oracle every result under -fork must match byte for byte.
func scratchResult(t *testing.T, label string) core.Results {
	t.Helper()
	r := NewRunner(forkDiffOptions(true))
	return r.Run("Mcf", label)
}

// forkedResult computes a label next to its Repl leader under a fork
// plan, reporting how many runs were served as identity aliases.
func forkedResult(t *testing.T, label string) (core.Results, uint64) {
	t.Helper()
	r := NewRunner(forkDiffOptions(false))
	keys := []RunKey{
		{App: "Mcf", Label: CfgRepl},
		{App: "Mcf", Label: label},
	}
	if err := r.ExecuteAll(nil, keys, 2, nil); err != nil {
		t.Fatalf("ExecuteAll: %v", err)
	}
	return r.Run("Mcf", label), r.ForkedRuns()
}

// TestForkEquivalenceAllClasses is the deterministic core of the
// -fork guarantee: for every label that shares a Repl leader, the
// result under a fork plan equals the from-scratch result in every
// field (cycles, outcome counters, the cache fingerprint, the ULMT
// stats — reflect.DeepEqual over all of Results). Exactly the identity
// aliases are served from the leader; every other label simulates.
func TestForkEquivalenceAllClasses(t *testing.T) {
	for _, label := range forkFollowerLabels {
		label := label
		t.Run(label, func(t *testing.T) {
			want := scratchResult(t, label)
			got, forked := forkedResult(t, label)
			var wantForked uint64
			if forkFamilyOf(label) == forkIdentical {
				wantForked = 1
			}
			if forked != wantForked {
				t.Errorf("%s: forked %d runs, want %d", label, forked, wantForked)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("forked run diverges from scratch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
