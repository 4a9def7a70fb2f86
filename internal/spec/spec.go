// Package spec holds what production uses of the paper's specification
// language (§3.1, §3.3–§3.4, §3.9): the three-way classification of
// external actions (information revelation, message passing,
// computation) that tags every catalogued deviation, and the phase
// decomposition with checkpoints.
//
// The phase-decomposition calculator quantifies the paper's claim that
// splitting a mechanism into certified phases "can allow an
// exponential reduction in the number of joint manipulation actions
// that must be checked in a faithfulness proof" — experiment E7.
//
// The state machines with suggested specifications (§3.1), and the
// extended FPSS specification formalized as one (§4.1), live in this
// package's test files: no binary runs them, and their tests are the
// reproduction of that part of §3.
package spec

import (
	"fmt"
	"math/big"
)

// ActionKind classifies an action per §3.1 and §3.4.
type ActionKind int

const (
	// Internal actions generate no message (§3.1).
	Internal ActionKind = iota + 1
	// InfoRevelation actions only reveal consistent (perhaps partial,
	// perhaps untruthful) information about the node's type (Def. 2).
	InfoRevelation
	// MessagePassing actions only forward a received message (Def. 3).
	MessagePassing
	// Computation actions can affect the outcome rule beyond
	// forwarding or revelation (Def. 4).
	Computation
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case Internal:
		return "internal"
	case InfoRevelation:
		return "information-revelation"
	case MessagePassing:
		return "message-passing"
	case Computation:
		return "computation"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Phase is a set of deviation points (external actions a node could
// manipulate) certified together at a checkpoint (§3.9).
type Phase struct {
	// DeviationPoints is the number of externally visible actions in
	// this phase at which a node can deviate.
	DeviationPoints int
	// Alternatives is the number of alternative behaviors per point
	// (e.g. drop / change / spoof = 3, plus faithful).
	Alternatives int
}

// JointDeviations returns the number of joint manipulation
// combinations a faithfulness proof must rule out for one phase:
// (Alternatives+1)^DeviationPoints − 1 (every point chooses faithful
// or one of the alternatives; all-faithful excluded).
func (p Phase) JointDeviations() *big.Int {
	base := big.NewInt(int64(p.Alternatives + 1))
	e := new(big.Int).Exp(base, big.NewInt(int64(p.DeviationPoints)), nil)
	return e.Sub(e, big.NewInt(1))
}

// DecompositionSavings quantifies §3.9's "exponential reduction":
// without checkpoints every combination across all phases must be
// checked jointly (product space); with certified phases each phase is
// checked in isolation (sum). Returns (monolithic, phased) counts.
func DecompositionSavings(phases []Phase) (monolithic, phased *big.Int) {
	monolithic = big.NewInt(1)
	phased = big.NewInt(0)
	for _, p := range phases {
		perPhase := new(big.Int).Add(p.JointDeviations(), big.NewInt(1)) // + all-faithful
		monolithic.Mul(monolithic, perPhase)
		phased.Add(phased, p.JointDeviations())
	}
	monolithic.Sub(monolithic, big.NewInt(1))
	return monolithic, phased
}
