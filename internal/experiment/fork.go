package experiment

// Identity aliases.
//
// A few labels of the run matrix build exactly another label's
// machine for the same app: the sweep's identity points build the
// Repl machine, and Custom builds the Conven4+Repl machine for every
// app Table 5 does not customize. Their simulation would repeat the
// leader's event for event, so a planned alias waits for its leader
// and reuses the leader's Results with the label rewritten. Every
// other label, ablations and the rest of the sweep included,
// simulates from scratch. The -fork=off oracle runs the aliases from
// scratch too and must render byte-identical reports.

// aliasLeader is the leader table: the label whose machine (app,
// label) builds exactly, if any. TestAliasSoundAndComplete proves it
// against BuildConfig for every app and every pair of planned labels.
func aliasLeader(app, label string) (string, bool) {
	switch label {
	case SweepLevelsLabel(3), SweepRowsLabel("*1"):
		// table.ReplParams defaults NumLevels to 3 and the *1 row
		// factor is the sized row count unchanged.
		return CfgRepl, true
	case CfgCustom:
		// An app without a Table 5 customization keeps its
		// Conven4+Repl setup.
		if _, ok := customizationOf(app); !ok {
			return CfgConvenRepl, true
		}
	}
	return "", false
}

// planFork records the identity aliases of a planned key set whose
// leader is planned too, mapping each to its leader's key. Called by
// ExecuteAll before its workers start; with Options.NoFork every run
// stays a scratch run.
func (r *Runner) planFork(keys []RunKey) {
	if r.opt.NoFork {
		return
	}
	have := make(map[RunKey]bool, len(keys))
	for _, k := range keys {
		have[k] = true
	}
	aliases := make(map[RunKey]RunKey)
	for _, k := range keys {
		if l, ok := aliasLeader(k.App, k.Label); ok && have[RunKey{App: k.App, Label: l}] {
			aliases[k] = RunKey{App: k.App, Label: l}
		}
	}
	r.aliases = aliases
}

// computeForked serves a planned identity alias from its leader's
// results. The boolean reports whether the outcome is authoritative;
// false means "run from scratch" (not an alias, or the leader failed).
func (r *Runner) computeForked(k RunKey) (simOutcome, bool) {
	leader, ok := r.aliases[k]
	if !ok {
		return simOutcome{}, false
	}
	lo := r.outcome(leader)
	if lo.err != nil {
		return simOutcome{}, false
	}
	res := lo.res
	res.Label = k.Label
	r.forkedRuns.Add(1)
	return simOutcome{res: res}, true
}
