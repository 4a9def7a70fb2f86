package core

import "runtime"

// CheckConfig configures CheckFaithfulnessCfg. The zero value is the
// sequential, unpruned search over the whole (node, deviation) grid —
// safe for any System.
type CheckConfig struct {
	// Workers is the worker-pool size for the deviation search.
	// 0 means 1 (the sequential oracle); negative means
	// runtime.NumCPU(). With more than one worker the System's Play
	// must be safe for concurrent calls — the rational and churn
	// systems are.
	Workers int

	// EarlyStop returns at the first profitable deviation in
	// catalogue order — (node, deviation) pairs enumerated as the
	// sequential loop would visit them. The Report then carries
	// exactly that one violation, and Checked counts the plays a
	// sequential search would have executed (the violation's 1-based
	// position among un-pruned plays).
	EarlyStop bool

	// PerEpoch expands the search grid from (node, deviation) to
	// (node, deviation, epoch): every play pins its deviation to a
	// single epoch of an EpochedSystem, so violations carry the epoch
	// that admits them and a multi-epoch scenario is certified
	// faithful *on every epoch*, not merely in aggregate. The System
	// must implement EpochedSystem (ErrNotEpoched otherwise).
	PerEpoch bool

	// Prune lets the engine skip plays that the System's Bounder
	// proves unprofitable: a play is pruned when the bound b (with
	// ok=true) satisfies b <= baseline utility, since a violation
	// requires a strict gain. Pruned plays are counted in
	// Report.Pruned so coverage stays auditable. Systems that do not
	// implement Bounder prune nothing. Soundness is the bound
	// provider's responsibility — see VerifyPruned.
	Prune bool

	// VerifyPruned replays every pruned play sequentially after the
	// search and fails the check if any of them beats its baseline — a
	// debug mode that catches unsound Bounder implementations instead
	// of silently under-reporting.
	VerifyPruned bool
}

// Bounder is implemented by Systems that can statically bound a
// play's profit from the truthful snapshot — e.g. "an
// execution-phase-only misreport can pocket at most what the deviator
// honestly owes". CheckConfig.Prune consults it.
type Bounder interface {
	// ProfitUpperBound returns an upper bound on the deviator's
	// utility for any play of dev, whole-run or pinned to one epoch.
	// ok=false means no bound is available and the play must run. A
	// sound bound never undercuts a utility the play could actually
	// realize.
	ProfitUpperBound(deviator NodeID, dev Deviation) (int64, bool)
}

// workerCount resolves the config's Workers convention into the
// effective pool size.
func (c CheckConfig) workerCount() int {
	switch {
	case c.Workers == 0:
		return 1
	case c.Workers < 0:
		return runtime.NumCPU()
	}
	return c.Workers
}
