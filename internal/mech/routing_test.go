package mech_test

import (
	"math/rand"
	"testing"

	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/mech"
)

// smallBiconnected returns a 4-node diamond (cycle) whose costs come
// from the report profile — the smallest interesting instance for an
// exhaustive strategyproofness certification.
func smallBiconnected(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRoutingMechanismStrategyproof(t *testing.T) {
	// Proposition 2, requirement (1): the corresponding centralized
	// mechanism is strategyproof. Exhaustive over cost space {0,1,2,3}
	// on a 4-cycle with all-to-all traffic: 256 profiles × 4 nodes × 3
	// misreports.
	g := smallBiconnected(t)
	m := &RoutingMechanism{
		Topology:      g,
		Traffic:       fpss.AllToAllTraffic(4, 1),
		DeliveryValue: 100,
	}
	violations, err := mech.CheckStrategyproof[*fpss.Solution](m, m.Utility(), 4, []mech.Type{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("FPSS centralized mechanism not strategyproof: %v (total %d)", violations[0], len(violations))
	}
}

func TestRoutingMechanismNaivePaymentsNotStrategyproof(t *testing.T) {
	// Control: replace VCG transfers with pay-declared-cost and the
	// same checker finds violations (Example 1 in mech clothing).
	g := smallBiconnected(t)
	inner := &RoutingMechanism{Topology: g, Traffic: fpss.AllToAllTraffic(4, 1), DeliveryValue: 100}
	naive := &naivePaymentMechanism{inner: inner}
	violations, err := mech.CheckStrategyproof[*fpss.Solution](naive, inner.Utility(), 4, []mech.Type{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatal("naive payment scheme should be manipulable")
	}
}

// naivePaymentMechanism pays each transit node its declared cost.
type naivePaymentMechanism struct {
	inner *RoutingMechanism
}

func (n *naivePaymentMechanism) Outcome(reports mech.Profile) (*fpss.Solution, error) {
	return n.inner.Outcome(reports)
}

func (n *naivePaymentMechanism) Transfers(reports mech.Profile, sol *fpss.Solution) ([]int64, error) {
	out := make([]int64, len(reports))
	for flow, packets := range n.inner.Traffic {
		src, dst := flow[0], flow[1]
		e, ok := sol.Routing[src].Get(dst)
		if !ok {
			continue
		}
		for _, k := range e.Path.TransitNodes() {
			out[k] += reports[k] * packets
			out[src] -= reports[k] * packets
		}
	}
	return out, nil
}

func TestRoutingMechanismValidation(t *testing.T) {
	m := &RoutingMechanism{}
	if _, err := m.Outcome(mech.Profile{1}); err == nil {
		t.Error("nil topology should error")
	}
	m.Topology = smallBiconnected(t)
	if _, err := m.Outcome(mech.Profile{1}); err == nil {
		t.Error("wrong profile length should error")
	}
	if _, err := m.Outcome(mech.Profile{-1, 1, 1, 1}); err == nil {
		t.Error("negative cost should error")
	}
}

func TestRoutingMechanismTransfersBalance(t *testing.T) {
	g := smallBiconnected(t)
	m := &RoutingMechanism{Topology: g, Traffic: fpss.AllToAllTraffic(4, 2), DeliveryValue: 50}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		profile := make(mech.Profile, 4)
		for i := range profile {
			profile[i] = rng.Int63n(6)
		}
		sol, err := m.Outcome(profile)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := m.Transfers(profile, sol)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, v := range tr {
			sum += v
		}
		if sum != 0 {
			t.Fatalf("transfers do not balance: %v", tr)
		}
	}
}
