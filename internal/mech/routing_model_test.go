package mech_test

import (
	"errors"
	"fmt"

	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/mech"
)

// RoutingMechanism adapts the centralized FPSS mechanism to the mech
// framework: types are per-node transit costs, the outcome is the full
// LCP/pricing solution under declared costs, and transfers are the
// aggregate VCG payments for a fixed traffic matrix.
//
// Proposition 2 reduces distributed faithfulness to (1) centralized
// strategyproofness plus (2) strong-CC and (3) strong-AC.
// mech.CheckStrategyproof over this adapter certifies (1) exhaustively
// on small instances — the formal complement to the protocol-level
// deviation search in package rational.
type RoutingMechanism struct {
	// Topology fixes the graph structure; declared costs come from the
	// report profile.
	Topology *graph.Graph
	// Traffic is the (common-knowledge) demand matrix.
	Traffic fpss.Traffic
	// DeliveryValue is each source's per-packet delivery value.
	DeliveryValue int64
}

var _ mech.Mechanism[*fpss.Solution] = (*RoutingMechanism)(nil)

// Outcome implements mech.Mechanism: solve routing and pricing under
// the declared cost profile.
func (r *RoutingMechanism) Outcome(reports mech.Profile) (*fpss.Solution, error) {
	if r.Topology == nil {
		return nil, errors.New("mech: RoutingMechanism without topology")
	}
	if len(reports) != r.Topology.N() {
		return nil, fmt.Errorf("mech: %d reports for %d nodes", len(reports), r.Topology.N())
	}
	g := graph.New(len(reports))
	for _, e := range r.Topology.Edges() {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	for i, c := range reports {
		if err := g.SetCost(graph.NodeID(i), graph.Cost(c)); err != nil {
			return nil, err
		}
	}
	return fpss.ComputeCentral(g)
}

// Transfers implements mech.Mechanism: each transit node receives its
// VCG payments; each source pays them. (Payments flow between nodes,
// so transfers sum to zero.)
func (r *RoutingMechanism) Transfers(reports mech.Profile, sol *fpss.Solution) ([]int64, error) {
	out := make([]int64, len(reports))
	for flow, packets := range r.Traffic {
		src, dst := flow[0], flow[1]
		for k, e := range sol.Pricing[src].Row(dst) {
			out[k] += int64(e.Price) * packets
			out[src] -= int64(e.Price) * packets
		}
	}
	return out, nil
}

// Utility returns the mech.Utility for the routing mechanism: sources
// value delivery; transit nodes pay their *true* per-packet cost for
// carried traffic. Quasilinear with the VCG transfers, truthful
// declaration is dominant.
func (r *RoutingMechanism) Utility() mech.Utility[*fpss.Solution] {
	return func(i int, sol *fpss.Solution, trueType mech.Type) int64 {
		var u int64
		id := graph.NodeID(i)
		for flow, packets := range r.Traffic {
			src, dst := flow[0], flow[1]
			if src == id {
				u += r.DeliveryValue * packets
			}
			if e, ok := sol.Routing[src].Get(dst); ok && e.Path.Contains(id) && id != src && id != dst {
				u -= trueType * packets
			}
		}
		return u
	}
}
