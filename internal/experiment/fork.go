package experiment

// Identity aliases.
//
// A few labels of the run matrix build exactly the Repl machine: the
// sweep's identity points. Their simulation would repeat the leader's
// event for event, so a planned alias waits for its Repl leader and
// reuses the leader's Results with the label rewritten. Every other
// label, ablations and the rest of the sweep included, simulates from
// scratch. The -fork=off oracle runs the aliases from scratch too and
// must render byte-identical reports.

// forkClass says how a label relates to its app's CfgRepl leader.
type forkClass int

const (
	forkNone forkClass = iota
	// forkIdentical: the label builds exactly the leader's machine,
	// so the leader's results are reused outright.
	forkIdentical
)

// forkFamilyOf classifies a label against the CfgRepl leader.
func forkFamilyOf(label string) forkClass {
	switch label {
	case SweepLevelsLabel(3), SweepRowsLabel("*1"):
		// table.ReplParams defaults NumLevels to 3 and the *1 row
		// factor is the sized row count unchanged, so both labels
		// build exactly the Repl machine — see TestSweepAliasIdentity.
		return forkIdentical
	}
	return forkNone
}

// planFork records the identity aliases of a planned key set whose
// CfgRepl leader is planned too. Called by ExecuteAll before its
// workers start; with Options.NoFork every run stays a scratch run.
func (r *Runner) planFork(keys []RunKey) {
	if r.opt.NoFork {
		return
	}
	have := make(map[RunKey]bool, len(keys))
	for _, k := range keys {
		have[k] = true
	}
	aliases := make(map[RunKey]bool)
	for _, k := range keys {
		if forkFamilyOf(k.Label) == forkIdentical && have[RunKey{App: k.App, Label: CfgRepl}] {
			aliases[k] = true
		}
	}
	r.aliases = aliases
}

// computeForked serves a planned identity alias from its leader's
// results. The boolean reports whether the outcome is authoritative;
// false means "run from scratch" (not an alias, or the leader failed).
func (r *Runner) computeForked(k RunKey) (simOutcome, bool) {
	if !r.aliases[k] {
		return simOutcome{}, false
	}
	lo := r.outcome(RunKey{App: k.App, Label: CfgRepl})
	if lo.err != nil {
		return simOutcome{}, false
	}
	res := lo.res
	res.Label = k.Label
	r.forkedRuns.Add(1)
	return simOutcome{res: res}, true
}
