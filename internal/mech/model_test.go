// Package mech is the traditional (centralized) mechanism design
// substrate of the paper's §3.2: direct-revelation mechanisms
// M = (f, Θ), utilities, dominant-strategy incentive compatibility
// (strategyproofness, Definition 5), and a generic Vickrey–Clarke–
// Groves mechanism with Clarke pivot payments.
//
// Proposition 2 reduces distributed faithfulness to (i) centralized
// strategyproofness plus (ii) strong-CC and (iii) strong-AC; this
// package supplies the machinery for (i): both concrete strategyproof
// mechanisms (VCG) and an exhaustive checker that certifies
// strategyproofness over finite type spaces. No binary links it, so it
// lives in test files only: its tests, and the FPSS adapter's in
// routing_test.go, are the reproduction of Definition 5 and
// Proposition 2(i).
package mech

import (
	"errors"
	"fmt"
	"math"
)

// Type is a node's private type: everything relevant to outcomes and
// preferences (§3.2). Types are modeled as int64 scalars — enough for
// transit costs and computation powers — kept generic via slices for
// multi-dimensional extensions.
type Type = int64

// Profile is a type vector, one entry per node.
type Profile []Type

// Clone returns a copy of the profile.
func (p Profile) Clone() Profile {
	out := make(Profile, len(p))
	copy(out, p)
	return out
}

// With returns a copy of the profile where node i reports t.
func (p Profile) With(i int, t Type) Profile {
	out := p.Clone()
	out[i] = t
	return out
}

// Mechanism is a centralized direct-revelation mechanism M = (f, Θ):
// given reported types it selects an outcome and per-node transfers
// (payments received; negative = paid).
type Mechanism[O any] interface {
	// Outcome implements f(θ̂).
	Outcome(reports Profile) (O, error)
	// Transfers returns the payment made *to* each node under the
	// chosen outcome (the money part of the mechanism).
	Transfers(reports Profile, outcome O) ([]int64, error)
}

// Utility evaluates node i's intrinsic (non-monetary) value for an
// outcome given its true type. Quasilinear total utility is
// Utility + transfer.
type Utility[O any] func(i int, outcome O, trueType Type) int64

// TotalUtility runs the mechanism on reports and returns each node's
// quasilinear utility evaluated at trueTypes.
func TotalUtility[O any](m Mechanism[O], u Utility[O], reports, trueTypes Profile) ([]int64, error) {
	if len(reports) != len(trueTypes) {
		return nil, errors.New("mech: reports/types length mismatch")
	}
	o, err := m.Outcome(reports)
	if err != nil {
		return nil, fmt.Errorf("outcome: %w", err)
	}
	tr, err := m.Transfers(reports, o)
	if err != nil {
		return nil, fmt.Errorf("transfers: %w", err)
	}
	if len(tr) != len(reports) {
		return nil, errors.New("mech: transfer vector length mismatch")
	}
	out := make([]int64, len(reports))
	for i := range out {
		out[i] = u(i, o, trueTypes[i]) + tr[i]
	}
	return out, nil
}

// Violation records a profitable misreport found by CheckStrategyproof.
type Violation struct {
	Node      int
	TrueType  Type
	Misreport Type
	Profile   Profile // other nodes' types at the violation
	Gain      int64
}

func (v Violation) String() string {
	return fmt.Sprintf("node %d with type %d gains %d by reporting %d (profile %v)",
		v.Node, v.TrueType, v.Gain, v.Misreport, v.Profile)
}

// CheckStrategyproof exhaustively verifies Definition 5 over the given
// finite type space: for every profile θ drawn from typeSpace^n, every
// node i, and every misreport θ̂i, truthful reporting must be a
// (weakly) dominant strategy. It returns all violations found (nil
// means the mechanism is strategyproof on this space).
//
// Cost is |typeSpace|^n · n · |typeSpace| mechanism runs — use small
// spaces; this is a certification tool for tests, not production.
func CheckStrategyproof[O any](m Mechanism[O], u Utility[O], n int, typeSpace []Type) ([]Violation, error) {
	if n <= 0 || len(typeSpace) == 0 {
		return nil, errors.New("mech: empty instance")
	}
	var violations []Violation
	profile := make(Profile, n)
	var rec func(pos int) error
	rec = func(pos int) error {
		if pos == n {
			truthful, err := TotalUtility(m, u, profile, profile)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				for _, lie := range typeSpace {
					if lie == profile[i] {
						continue
					}
					misreported := profile.With(i, lie)
					lied, err := TotalUtility(m, u, misreported, profile)
					if err != nil {
						return err
					}
					if lied[i] > truthful[i] {
						violations = append(violations, Violation{
							Node:      i,
							TrueType:  profile[i],
							Misreport: lie,
							Profile:   profile.Clone(),
							Gain:      lied[i] - truthful[i],
						})
					}
				}
			}
			return nil
		}
		for _, t := range typeSpace {
			profile[pos] = t
			if err := rec(pos + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return violations, nil
}

// --- Generic VCG over finite outcome sets ---

// Valuation gives node i's value for outcome index o when its type is t.
type Valuation func(i int, o int, t Type) int64

// VCG is a Vickrey–Clarke–Groves mechanism over an explicit finite
// outcome set: it selects the welfare-maximizing outcome under
// reported types and charges Clarke-pivot payments, making truthful
// reporting a dominant strategy.
type VCG struct {
	// NumOutcomes is the size of the outcome set; outcomes are indices
	// 0..NumOutcomes-1.
	NumOutcomes int
	// Value is the common-knowledge valuation structure.
	Value Valuation
}

var _ Mechanism[int] = (*VCG)(nil)

// Outcome selects argmax_o Σ_i Value(i, o, θ̂i), lowest index on ties.
func (v *VCG) Outcome(reports Profile) (int, error) {
	if v.NumOutcomes <= 0 {
		return 0, errors.New("mech: VCG with no outcomes")
	}
	best, bestWelfare := 0, int64(math.MinInt64)
	for o := 0; o < v.NumOutcomes; o++ {
		w := v.welfare(o, reports, -1)
		if w > bestWelfare {
			best, bestWelfare = o, w
		}
	}
	return best, nil
}

// Transfers charges each node the externality it imposes:
// t_i = Σ_{j≠i} v_j(o*) − max_o Σ_{j≠i} v_j(o)  (≤ 0).
func (v *VCG) Transfers(reports Profile, outcome int) ([]int64, error) {
	out := make([]int64, len(reports))
	for i := range reports {
		othersAtChosen := v.welfare(outcome, reports, i)
		bestWithoutI := int64(math.MinInt64)
		for o := 0; o < v.NumOutcomes; o++ {
			if w := v.welfare(o, reports, i); w > bestWithoutI {
				bestWithoutI = w
			}
		}
		out[i] = othersAtChosen - bestWithoutI
	}
	return out, nil
}

func (v *VCG) welfare(o int, reports Profile, skip int) int64 {
	var total int64
	for j, t := range reports {
		if j == skip {
			continue
		}
		total += v.Value(j, o, t)
	}
	return total
}

// TruthfulValue is the canonical VCG utility: intrinsic value equals
// the valuation at the true type.
func (v *VCG) TruthfulValue() Utility[int] {
	return func(i int, o int, trueType Type) int64 {
		return v.Value(i, o, trueType)
	}
}
