package experiment

import (
	"reflect"
	"testing"

	"ulmt/internal/core"
	"ulmt/internal/table"
	"ulmt/internal/workload"
)

// forkFollowerLabels are the labels that share a Repl leader's app in
// the run matrix: every ablation plus every sweep point, the two sweep
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
func forkDiffOptions(app string, noFork bool) Options {
	return Options{
		Scale:  workload.ScaleTiny,
		Apps:   []string{app},
		Seed:   1,
		NoFork: noFork,
	}
}

// scratchResult computes a label's results with aliasing disabled —
// the oracle every result under -fork must match byte for byte.
func scratchResult(t *testing.T, app, label string) core.Results {
	t.Helper()
	r := NewRunner(forkDiffOptions(app, true))
	return r.Run(app, label)
}

// forkedResult computes a label next to a would-be leader under a
// fork plan, reporting how many runs were served as identity aliases.
func forkedResult(t *testing.T, app, leader, label string) (core.Results, uint64) {
	t.Helper()
	r := NewRunner(forkDiffOptions(app, false))
	keys := []RunKey{
		{App: app, Label: leader},
		{App: app, Label: label},
	}
	if err := r.ExecuteAll(nil, keys, 2, nil); err != nil {
		t.Fatalf("ExecuteAll: %v", err)
	}
	return r.Run(app, label), r.ForkedRuns()
}

// TestForkEquivalenceAllClasses is the deterministic core of the
// -fork guarantee: for every label that shares a Repl leader, and for
// Custom beside Conven4+Repl on a customized and an uncustomized app,
// the result under a fork plan equals the from-scratch result in every
// field (cycles, outcome counters, the cache fingerprint, the ULMT
// stats — reflect.DeepEqual over all of Results). Exactly the identity
// aliases are served from the leader; every other label simulates.
func TestForkEquivalenceAllClasses(t *testing.T) {
	type pair struct{ name, app, leader, label string }
	var pairs []pair
	for _, label := range forkFollowerLabels {
		pairs = append(pairs, pair{label, "Mcf", CfgRepl, label})
	}
	for _, app := range []string{"Mcf", "Parser"} {
		pairs = append(pairs, pair{CfgCustom + "/" + app, app, CfgConvenRepl, CfgCustom})
	}
	for _, p := range pairs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			want := scratchResult(t, p.app, p.label)
			got, forked := forkedResult(t, p.app, p.leader, p.label)
			var wantForked uint64
			if l, ok := aliasLeader(p.app, p.label); ok && l == p.leader {
				wantForked = 1
			}
			if forked != wantForked {
				t.Errorf("%s: forked %d runs, want %d", p.name, forked, wantForked)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("forked run diverges from scratch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// aliasRoot is the label whose simulation serves (app, label): its
// leader for an identity alias, itself otherwise.
func aliasRoot(app, label string) string {
	if l, ok := aliasLeader(app, label); ok {
		return l
	}
	return label
}

// TestAliasSoundAndComplete proves the leader table exact: for every
// app and every pair of labels the full report plans for it, the two
// labels build reflect.DeepEqual machines if and only if the pair is
// aliased (one is the other's leader, or both share a leader). Sound:
// an alias never reuses a different machine's results. Complete: no
// two planned labels simulate the same machine twice.
func TestAliasSoundAndComplete(t *testing.T) {
	r := NewRunner(Options{Scale: workload.ScaleTiny, Seed: 1})
	labels := make(map[string][]string)
	for _, k := range r.PlanRuns(AllOrder) {
		labels[k.App] = append(labels[k.App], k.Label)
	}
	nAliased := 0
	for _, app := range r.Apps() {
		ls := labels[app]
		cfgs := make([]core.Config, len(ls))
		for i, label := range ls {
			// Recycled successor arenas carry unobservable stale words,
			// so two structurally identical builds are only DeepEqual
			// when both draw fresh arenas.
			table.FlushArenaPool()
			cfgs[i] = r.BuildConfig(app, label)
		}
		for i := range ls {
			for j := i + 1; j < len(ls); j++ {
				same := reflect.DeepEqual(cfgs[i], cfgs[j])
				aliased := aliasRoot(app, ls[i]) == aliasRoot(app, ls[j])
				if aliased {
					nAliased++
				}
				switch {
				case same && !aliased:
					t.Errorf("%s: %s and %s build the same machine but are not aliased", app, ls[i], ls[j])
				case aliased && !same:
					t.Errorf("%s: %s and %s are aliased but build different machines", app, ls[i], ls[j])
				}
			}
		}
	}
	if nAliased == 0 {
		t.Fatal("no aliased pairs planned; the test is vacuous")
	}
}
