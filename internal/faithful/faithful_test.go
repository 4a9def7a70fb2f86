package faithful

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/fpss"
	"repro/internal/graph"
)

// bankStateReportAlias keeps the ReportState hook signature readable
// in table-style test literals.
type bankStateReportAlias = bank.StateReport

func baseConfig(g *graph.Graph) Config {
	return Config{
		Graph:              g,
		Traffic:            fpss.AllToAllTraffic(g.N(), 1),
		DeliveryValue:      10_000,
		UndeliveredPenalty: 10_000,
	}
}

func TestHonestRunGreenLights(t *testing.T) {
	g := graph.Figure1()
	res, err := Run(baseConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("honest run not green-lit: %v", res.Detections)
	}
	if len(res.Detections) != 0 {
		t.Errorf("honest run detections: %v", res.Detections)
	}
	if len(res.PaymentFindings) != 0 {
		t.Errorf("honest run payment findings: %v", res.PaymentFindings)
	}
	if res.Exec == nil || res.Exec.Undelivered != 0 {
		t.Errorf("honest run should deliver everything: %+v", res.Exec)
	}
}

func TestHonestTablesMatchCentral(t *testing.T) {
	g := graph.Figure1()
	res, err := Run(baseConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := fpss.ComputeCentral(g)
	if err != nil {
		t.Fatal(err)
	}
	for id, node := range res.Nodes {
		if !node.Routing().Equal(sol.Routing[id]) {
			t.Errorf("node %d routing differs from central", id)
		}
		if !node.Pricing().Equal(sol.Pricing[id]) {
			t.Errorf("node %d pricing differs from central", id)
		}
	}
}

func TestHonestMirrorsMatchPrincipals(t *testing.T) {
	g := graph.Figure1()
	res, err := Run(baseConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	for id, node := range res.Nodes {
		for _, p := range g.Neighbors(id) {
			mr, mp, ok := node.MirrorOf(p)
			if !ok {
				t.Fatalf("node %d has no mirror of neighbor %d", id, p)
			}
			principal := res.Nodes[p]
			if !mr.Equal(principal.Routing()) {
				t.Errorf("node %d mirror routing of %d diverges", id, p)
			}
			if !mp.Equal(principal.Pricing()) {
				t.Errorf("node %d mirror pricing of %d diverges", id, p)
			}
		}
	}
}

func TestHonestRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(5)
		g, err := graph.RandomBiconnected(n, rng.Intn(n), 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(baseConfig(g))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("trial %d: honest run not green-lit: %v", trial, res.Detections)
		}
	}
}

func deviatorRun(t *testing.T, g *graph.Graph, id graph.NodeID, s *Strategy) *Result {
	t.Helper()
	cfg := baseConfig(g)
	cfg.Strategies = map[graph.NodeID]*Strategy{id: s}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMiscomputedRoutingDetected(t *testing.T) {
	g := graph.Figure1()
	c, _ := g.ByName("C")
	// Manipulation 2: C claims an absurdly cheap route everywhere,
	// attracting transit traffic.
	res := deviatorRun(t, g, c, &Strategy{
		Protocol: fpss.Strategy{
			PostRouting: func(rt fpss.RoutingTable) fpss.RoutingTable {
				for d, e := range rt {
					e.Cost = 0
					rt[d] = e
				}
				return rt
			},
		},
	})
	if res.Completed {
		t.Fatal("miscomputed routing was green-lit")
	}
	if len(res.Detections) == 0 {
		t.Fatal("no detections")
	}
}

func TestMiscomputedPricingDetected(t *testing.T) {
	g := graph.Figure1()
	c, _ := g.ByName("C")
	// Manipulation 4: inflate every price involving C as transit.
	res := deviatorRun(t, g, c, &Strategy{
		Protocol: fpss.Strategy{
			PostPricing: func(pt fpss.PricingTable) fpss.PricingTable {
				for d, row := range pt {
					for k, e := range row {
						e.Price += 50
						row[k] = e
					}
					_ = d
				}
				return pt
			},
		},
	})
	if res.Completed {
		t.Fatal("miscomputed pricing was green-lit")
	}
}

func TestTamperedAdvertisementDetected(t *testing.T) {
	g := graph.Figure1()
	d, _ := g.ByName("D")
	// Manipulation 2 (change): advertise different tables than computed.
	res := deviatorRun(t, g, d, &Strategy{
		Protocol: fpss.Strategy{
			SendUpdate: func(to graph.NodeID, u fpss.Update) (fpss.Update, bool) {
				u.Routing = slices.Clone(u.Routing) // copy on write: u is published
				for dest, e := range u.Routing {
					e.Cost += 7
					u.Routing[dest] = e
				}
				return u, true
			},
		},
	})
	if res.Completed {
		t.Fatal("tampered advertisement was green-lit")
	}
}

func TestDroppedForwardDetected(t *testing.T) {
	g := graph.Figure1()
	d, _ := g.ByName("D")
	// Manipulation 1/3 (drop): never forward copies to checkers.
	res := deviatorRun(t, g, d, &Strategy{
		ForwardToChecker: func(graph.NodeID, ForwardCopy) (ForwardCopy, bool) {
			return ForwardCopy{}, false
		},
	})
	if res.Completed {
		t.Fatal("dropped forwards were green-lit")
	}
}

// bumpForwardedCosts is a forward hook that raises every forwarded
// route's cost by one, in a copy of the published routing table.
func bumpForwardedCosts(_ graph.NodeID, fc ForwardCopy) (ForwardCopy, bool) {
	fc.U.Routing = slices.Clone(fc.U.Routing)
	for dest, e := range fc.U.Routing {
		e.Cost++
		fc.U.Routing[dest] = e
	}
	return fc, true
}

func TestChangedForwardDetected(t *testing.T) {
	g := graph.Figure1()
	d, _ := g.ByName("D")
	res := deviatorRun(t, g, d, &Strategy{ForwardToChecker: bumpForwardedCosts})
	if res.Completed {
		t.Fatal("changed forwards were green-lit")
	}
}

// TestForwardHookEditsOnlyItsCopy pins that a forward hook that copies
// on write cannot reach other nodes' state through the forwarded
// tables: those are the sender's published ones, which the sender
// keeps as its own DATA2/DATA3* and its neighbors keep as views.
// Whoever deviates, the edited copies reach only checker mirrors, so
// every node ends with the honest run's tables.
func TestForwardHookEditsOnlyItsCopy(t *testing.T) {
	g := graph.Figure1()
	honest, err := Run(baseConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		deviator := graph.NodeID(i)
		res := deviatorRun(t, g, deviator, &Strategy{ForwardToChecker: bumpForwardedCosts})
		for id, node := range res.Nodes {
			want := honest.Nodes[id]
			if !node.Routing().Equal(want.Routing()) {
				t.Errorf("deviator %d: node %d routing differs from the honest run", deviator, id)
			}
			if !node.Pricing().Equal(want.Pricing()) {
				t.Errorf("deviator %d: node %d pricing differs from the honest run", deviator, id)
			}
		}
	}
}

func TestSpoofedForwardDetected(t *testing.T) {
	g := graph.Figure1()
	d, _ := g.ByName("D")
	x, _ := g.ByName("X")
	z, _ := g.ByName("Z")
	// Manipulation 1/3 (spoof): fabricate an input "from X" claiming a
	// free route to Z.
	spoofed := make(fpss.RoutingTable, g.N())
	spoofed[z] = fpss.RouteEntry{Dest: z, Cost: 0, Path: graph.Path{x, z}}
	res := deviatorRun(t, g, d, &Strategy{
		SpoofCopies: func(self graph.NodeID) []ForwardCopy {
			return []ForwardCopy{{
				Principal: self,
				From:      x,
				U: fpss.Update{
					From:    x,
					Routing: spoofed,
					Pricing: fpss.PricingTable{},
				},
			}}
		},
	})
	if res.Completed {
		t.Fatal("spoofed forward was green-lit")
	}
	found := false
	for _, det := range res.Detections {
		if strings.Contains(det.Reason, "misattributes") || strings.Contains(det.Reason, "mirror") {
			found = true
		}
	}
	if !found {
		t.Errorf("spoof not surfaced: %v", res.Detections)
	}
}

func TestLyingToBankDetected(t *testing.T) {
	g := graph.Figure1()
	c, _ := g.ByName("C")
	// Miscompute pricing AND report the faithful hash to the bank:
	// caught because the principal's advertisements diverge from every
	// checker's mirror.
	res := deviatorRun(t, g, c, &Strategy{
		Protocol: fpss.Strategy{
			PostPricing: func(pt fpss.PricingTable) fpss.PricingTable {
				for _, row := range pt {
					for k, e := range row {
						e.Price += 9
						row[k] = e
					}
				}
				return pt
			},
		},
		ReportState: func(truth bankStateReportAlias) bankStateReportAlias {
			// Claim pristine hashes by zeroing one's own pricing hash to
			// a forged constant cannot match checkers either; instead
			// the deviator tries copying a mirror it keeps of a
			// neighbor — any fixed lie still mismatches at least one
			// comparison.
			truth.PricingHash = fpss.Hash{}
			return truth
		},
	})
	if res.Completed {
		t.Fatal("hash lie was green-lit")
	}
}

func TestPaymentFraudPenalized(t *testing.T) {
	g := graph.Figure1()
	x, _ := g.ByName("X")
	honest, err := Run(baseConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	res := deviatorRun(t, g, x, &Strategy{
		ReportPayment: func(fpss.PaymentList) fpss.PaymentList {
			return fpss.PaymentList{} // claim nothing owed
		},
	})
	if !res.Completed {
		t.Fatal("payment fraud should not block construction")
	}
	if len(res.PaymentFindings) != 1 || res.PaymentFindings[0].Node != x {
		t.Fatalf("findings = %v", res.PaymentFindings)
	}
	if res.Utilities[x] >= honest.Utilities[x] {
		t.Errorf("payment fraud must be strictly unprofitable: honest %d, fraud %d",
			honest.Utilities[x], res.Utilities[x])
	}
	// Transit nodes are made whole.
	for _, k := range []string{"C", "D"} {
		id, _ := g.ByName(k)
		if res.Utilities[id] != honest.Utilities[id] {
			t.Errorf("transit %s utility changed: honest %d, fraud run %d", k, honest.Utilities[id], res.Utilities[id])
		}
	}
}

func TestRelayTamperDetectedWhenEffective(t *testing.T) {
	g := graph.Figure1()
	z, _ := g.ByName("Z")
	c, _ := g.ByName("C")
	// Z inflates C's cost announcement when relaying: nodes that hear
	// the tampered copy first end up with divergent DATA1.
	res := deviatorRun(t, g, z, &Strategy{
		Protocol: fpss.Strategy{
			RelayCost: func(_ graph.NodeID, a fpss.CostAnnounce) (fpss.CostAnnounce, bool) {
				if a.Origin == c {
					a.Cost += 100
				}
				return a, true
			},
		},
	})
	// Either the tampered copies arrived late everywhere (harmless) or
	// DATA1 diverged and the bank refused to proceed. Both outcomes
	// deny the deviator any gain; assert no corrupted green-light.
	if res.Completed {
		sol, err := fpss.ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		for id, node := range res.Nodes {
			if !node.Routing().Equal(sol.Routing[id]) {
				t.Errorf("green-lit run has corrupted routing at node %d", id)
			}
		}
	}
}

func TestNonProgressUtilities(t *testing.T) {
	g := graph.Figure1()
	c, _ := g.ByName("C")
	res := deviatorRun(t, g, c, &Strategy{
		Protocol: fpss.Strategy{
			PostRouting: func(rt fpss.RoutingTable) fpss.RoutingTable {
				for d, e := range rt {
					e.Cost = 0
					rt[d] = e
				}
				return rt
			},
		},
	})
	if res.Completed {
		t.Fatal("should not complete")
	}
	for id, u := range res.Utilities {
		if u != -1_000_000 {
			t.Errorf("node %d utility = %d, want -1000000", id, u)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil graph should error")
	}
}

// MirrorOf exposes a checker's mirror tables for a principal (tests).
func (n *Node) MirrorOf(p graph.NodeID) (fpss.RoutingTable, fpss.PricingTable, bool) {
	m, ok := n.mirrors[p]
	if !ok {
		return nil, nil, false
	}
	m.refresh(n.Derivation().Scratch(), n.CostsView())
	return m.routing.Clone(), m.pricing.Clone(), true
}
