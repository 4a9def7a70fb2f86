package fpss

import (
	"fmt"

	"repro/internal/graph"
)

// Central is ComputeCentral's solution together with the base route
// trees behind it, retained so the next epoch's solution can be
// *repaired* from this one instead of rebuilt. The churn layer chains
// one Central per epoch: epoch e evolves from epoch e−1 through the
// membership/cost delta, and every play of epoch e shares the resulting
// immutable Solution.
//
// A Central keeps n base trees — O(n²) int64/int32 labels. The avoid-k
// trees behind the prices are derived from the base trees into worker
// scratch inside each computation and dropped with it, so a chain that
// holds every epoch alive pays only the base trees and the solution
// per epoch.
type Central struct {
	// Sol is the centralized routing/pricing solution — identical to
	// what ComputeCentral returns for the same graph.
	Sol *Solution

	base []*graph.Tree // base[src]: full route tree from src
}

// ComputeCentralState is ComputeCentral, additionally retaining the
// route trees so the result can seed Evolve.
func ComputeCentralState(g *graph.Graph) (*Central, error) {
	return computeCentral(g, nil, nil)
}

// Evolve computes the central solution for g — the post-delta graph —
// by repairing this state's base trees through d. The avoid-k trees
// derive from the repaired base trees exactly as in ComputeCentral, so
// nothing of the previous epoch's avoid sweep is needed. The result is
// byte-identical to ComputeCentral(g): transit detection, pricing and
// identity tags run on repaired trees that SSSPDelta guarantees match
// scratch ones label-for-label. A nil delta degrades to a full scratch
// computation.
func (c *Central) Evolve(g *graph.Graph, d *graph.Delta) (*Central, error) {
	if c == nil || d == nil {
		return computeCentral(g, nil, nil)
	}
	if d.NOld() != len(c.base) {
		return nil, fmt.Errorf("fpss: delta old n %d != central n %d", d.NOld(), len(c.base))
	}
	return computeCentral(g, c, d)
}
