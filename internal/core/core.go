// Package core implements the paper's primary contribution: the
// faithfulness framework for distributed mechanism specifications
// (Shneidman & Parkes, PODC 2004, §3.3–§3.8).
//
// A distributed mechanism specification dM = (g, Σ, s^m) is *faithful*
// (Definition 8) when the suggested strategy s^m is an ex post Nash
// equilibrium: no node, whatever the others' types, can strictly gain
// by any unilateral deviation. The framework exposes:
//
//   - the deviation model (a catalogue of alternative strategies per
//     node, classified as information-revelation, message-passing or
//     computation deviations per §3.4);
//   - System, the one shape every mechanism takes: Snapshot runs the
//     suggested strategy once and Play runs one unilateral deviation
//     against that snapshot;
//   - CheckFaithfulnessCfg, the verifier that plays every catalogued
//     unilateral deviation against the suggested strategy's outcome
//     and reports any strict utility gain (violations of IC, CC or AC
//     — Definitions 9–11); and
//   - Report, which maps violations back onto the paper's property
//     vocabulary (IC/CC/AC, and faithfulness via Proposition 1: all
//     three in the same equilibrium).
//
// Strong-CC / strong-AC (Definitions 12–13) are checked by including
// *joint* deviations — combinations of message-passing, computation
// and revelation actions — in the catalogue; Proposition 2 is
// exercised end-to-end in the fpss/faithful packages.
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/spec"
)

// NodeID identifies a participant in a distributed mechanism.
type NodeID int

// Deviation is one alternative strategy available to a rational node:
// a named departure from the suggested specification, tagged with the
// action classes it touches (a joint deviation touches several).
type Deviation interface {
	// Name uniquely identifies the deviation within a System.
	Name() string
	// Classes reports which external action classes the deviation
	// manipulates (information revelation, message passing,
	// computation) — drives the IC/CC/AC attribution in Report.
	Classes() []spec.ActionKind
}

// Outcome is the result of running a distributed mechanism to
// completion (or to the bank refusing to green-light it).
type Outcome struct {
	// Utilities is the realized quasilinear utility per node,
	// including payments, penalties and transit costs.
	Utilities map[NodeID]int64
	// Completed is false when the mechanism did not reach the
	// execution phase (e.g. the bank kept restarting a construction
	// phase because a deviation was detected). Per the paper's §4.3
	// assumption, nodes place a strong negative value on
	// non-progress; Utilities must already reflect that.
	Completed bool
	// Detected lists nodes the bank (or checkpointing entity) flagged.
	Detected []NodeID
}

// System is one concrete instance of a distributed mechanism: a fixed
// topology and true-type profile, plus the machinery to execute the
// suggested specification with at most one deviating node. Snapshot
// computes the truthful state once; Play runs one deviant play
// against it.
type System interface {
	// Nodes lists the strategic participants.
	Nodes() []NodeID
	// Deviations enumerates the catalogued deviations for a node.
	Deviations(n NodeID) []Deviation
	// Snapshot runs the suggested specification s^m for everyone and
	// captures the truthful state every play starts from.
	Snapshot() (TruthfulState, error)
	// Play executes the mechanism with one deviating node against a
	// snapshot this System took; deviator < 0 (or dev == nil) yields
	// the snapshot's baseline, which is shared and read-only. Any other
	// returned Outcome belongs to the caller.
	Play(ctx *PlayContext, st TruthfulState, deviator NodeID, dev Deviation) (Outcome, error)
}

// Violation records a strictly profitable unilateral deviation — a
// counterexample to faithfulness.
type Violation struct {
	Node      NodeID
	Deviation string
	Classes   []spec.ActionKind
	Baseline  int64
	Deviant   int64
	// Epoch is the 1-based epoch the deviation was pinned to when the
	// check ran with CheckConfig.PerEpoch over an EpochedSystem; 0
	// means the play spanned the whole run (static scenarios and
	// un-pinned searches).
	Epoch int
}

// Gain returns the strict improvement the deviator obtained.
func (v Violation) Gain() int64 { return v.Deviant - v.Baseline }

func (v Violation) String() string {
	if v.Epoch > 0 {
		return fmt.Sprintf("node %d gains %d via %q in epoch %d (classes %v)", v.Node, v.Gain(), v.Deviation, v.Epoch, v.Classes)
	}
	return fmt.Sprintf("node %d gains %d via %q (classes %v)", v.Node, v.Gain(), v.Deviation, v.Classes)
}

// Report summarizes a faithfulness check in the paper's vocabulary.
type Report struct {
	// Checked is the number of plays actually executed. Without
	// pruning this is the full grid size ((node, deviation) pairs, or
	// triples under PerEpoch); with Prune it excludes the plays the
	// bound skipped, so Checked + Pruned is the grid.
	Checked int
	// Pruned is the number of plays the System's Bounder proved
	// unprofitable and the engine skipped. Always 0 without Prune.
	// Kept separate from Checked so suite output can't silently
	// under-report coverage.
	Pruned int
	// Violations lists every strictly profitable deviation.
	Violations []Violation
}

// Total is the full grid size the search enumerated: executed plus
// pruned plays.
func (r Report) Total() int { return r.Checked + r.Pruned }

// touches reports whether any violation involves the given class.
func (r Report) touches(k spec.ActionKind) bool {
	for _, v := range r.Violations {
		for _, c := range v.Classes {
			if c == k {
				return true
			}
		}
	}
	return false
}

// IC reports incentive compatibility (Definition 9): no profitable
// deviation involving information-revelation actions.
func (r Report) IC() bool { return !r.touches(spec.InfoRevelation) }

// CC reports communication compatibility (Definition 10): no
// profitable deviation involving message-passing actions.
func (r Report) CC() bool { return !r.touches(spec.MessagePassing) }

// AC reports algorithm compatibility (Definition 11): no profitable
// deviation involving computation actions.
func (r Report) AC() bool { return !r.touches(spec.Computation) }

// Faithful reports Definition 8 via Proposition 1: the suggested
// strategy survives every catalogued deviation (IC ∧ CC ∧ AC in the
// same equilibrium — here literally the same runs).
func (r Report) Faithful() bool { return len(r.Violations) == 0 }

// EpochedSystem is a System whose runs span several epochs — a
// dynamic network where nodes join and leave between construction
// phases (internal/churn). On top of the whole-run Play inherited from
// System (deviation active in every epoch the deviator participates
// in), it can pin a deviation to a single epoch, which is what lets
// CheckConfig.PerEpoch replay the (node, deviation) grid per epoch and
// attribute each violation to the epoch that admits it.
type EpochedSystem interface {
	System
	// NumEpochs reports how many epochs a run spans (≥ 1).
	NumEpochs() int
	// PlayEpoch is Play with the deviation active only in the given
	// epoch (0-based); every other epoch follows the suggested
	// specification. Utilities aggregate over all epochs, exactly like
	// Play.
	PlayEpoch(ctx *PlayContext, st TruthfulState, deviator NodeID, dev Deviation, epoch int) (Outcome, error)
	// EpochsOf lists the epochs (0-based, ascending) in which the
	// deviation can differ from the suggested strategy for this
	// deviator — e.g. only the epochs the node is a member of, or the
	// single boundary a leave-type deviation exploits. nil means every
	// epoch. PerEpoch enumerates plays only for these epochs; a pinned
	// play outside the set would equal the baseline by construction.
	EpochsOf(deviator NodeID, dev Deviation) []int
}

// ErrNoBaseline is returned when the suggested specification itself
// fails to run.
var ErrNoBaseline = errors.New("core: baseline run failed")

// ErrNotEpoched is returned when PerEpoch is requested for a System
// that does not implement EpochedSystem.
var ErrNotEpoched = errors.New("core: PerEpoch requires an EpochedSystem")

// CheckFaithfulnessCfg plays every catalogued unilateral deviation of
// every node against the suggested specification and records each
// strict utility gain. Under the benevolence assumption (Remark 1) a
// weak equilibrium suffices: ties are not violations.
//
// The check certifies ex post Nash *for this type profile*; callers
// quantify over profiles by invoking it across many sampled Systems
// (the deviation search of experiment E6).
//
// The truthful state is snapshotted once and every play overlays it.
// The zero CheckConfig is the sequential search; the Report is
// byte-identical for every worker count (see check.go for how the
// engine keeps scheduling out of the output).
func CheckFaithfulnessCfg(sys System, cfg CheckConfig) (Report, error) {
	return check(sys, cfg)
}

// sortViolations orders violations canonically: by node, then by
// deviation name, then by epoch (PerEpoch can admit the same deviation
// in several epochs).
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Node != vs[j].Node {
			return vs[i].Node < vs[j].Node
		}
		if vs[i].Deviation != vs[j].Deviation {
			return vs[i].Deviation < vs[j].Deviation
		}
		return vs[i].Epoch < vs[j].Epoch
	})
}
