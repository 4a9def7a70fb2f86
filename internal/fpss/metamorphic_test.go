package fpss

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// Metamorphic relations over the honest mechanism: each relation
// follows from the FPSS definitions alone, so it needs no second
// implementation that could share a wrong assumption with the first.

// metamorphicGraphs returns seeded biconnected PreferentialAttachment,
// TwoTier and Waxman graphs with 8 to 24 nodes.
func metamorphicGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	for seed := range 9 {
		rng := rand.New(rand.NewSource(int64(2800 + seed)))
		n := 8 + rng.Intn(17)
		var (
			g   *graph.Graph
			err error
		)
		switch seed % 3 {
		case 0:
			g, err = graph.PreferentialAttachment(n, 2, graph.UniformCost(9), rng)
		case 1:
			g, err = graph.TwoTier(3, n/3, graph.UniformCost(9), rng)
		default:
			g, err = graph.Waxman(n, 0.4, 0.2, graph.UniformCost(9), rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsBiconnected() {
			t.Fatalf("seed %d: graph is not biconnected", seed)
		}
		out = append(out, g)
	}
	return out
}

// TestCostScalingScalesPrices multiplies every transit cost by c. The
// route order compares costs only with each other, so every route,
// witness and tag set stays the same, and every cost and price, a sum
// and difference of costs, is multiplied by c.
func TestCostScalingScalesPrices(t *testing.T) {
	priced := 0
	for gi, g := range metamorphicGraphs(t) {
		sol, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []graph.Cost{2, 3, 7} {
			sg := graph.New(g.N())
			for _, e := range g.Edges() {
				if err := sg.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			for v := range g.N() {
				if err := sg.SetCost(graph.NodeID(v), c*g.Cost(graph.NodeID(v))); err != nil {
					t.Fatal(err)
				}
			}
			scaled, err := ComputeCentral(sg)
			if err != nil {
				t.Fatal(err)
			}
			where := func(i, j graph.NodeID) string { return fmt.Sprintf("graph %d, c=%d, %d→%d", gi, c, i, j) }
			for v, cost := range sol.Costs {
				if scaled.Costs[v] != c*cost {
					t.Errorf("graph %d, c=%d: DATA1 of %d is %d, want %d", gi, c, v, scaled.Costs[v], c*cost)
				}
			}
			for i := range graph.NodeID(g.N()) {
				rt, srt := sol.Routing[i], scaled.Routing[i]
				pt, spt := sol.Pricing[i], scaled.Pricing[i]
				for j := range graph.NodeID(g.N()) {
					e, ok := rt.Get(j)
					s, sok := srt.Get(j)
					if ok != sok || ok && (s.Cost != c*e.Cost || !s.Path.Equal(e.Path)) {
						t.Errorf("%s: route %+v (present %v), want %+v scaled (present %v)", where(i, j), s, sok, e, ok)
					}
					row, srow := pt.Row(j), spt.Row(j)
					if (row == nil) != (srow == nil) || len(row) != len(srow) {
						t.Errorf("%s: pricing row %v, want %v scaled", where(i, j), srow, row)
						continue
					}
					for k, pe := range row {
						spe, ok := srow[k]
						if !ok || spe.Transit != pe.Transit || spe.Price != c*pe.Price || !spe.Avoid.Equal(pe.Avoid) || !slices.Equal(spe.Tags, pe.Tags) {
							t.Errorf("%s via %d: price entry %+v, want %+v scaled", where(i, j), k, spe, pe)
						}
						priced++
					}
				}
			}
		}
	}
	if priced == 0 {
		t.Fatal("no price entry was compared")
	}
}

// TestTrafficLinearity multiplies every flow by m. Every figure of
// the execution phase is a sum over packets, so every utility,
// obligation, reported payment and packet count is multiplied by m.
// That holds under both pricing schemes, and it pins the per-node fold
// of transit charges into one product per (node, flow).
func TestTrafficLinearity(t *testing.T) {
	paid := 0
	for gi, g := range metamorphicGraphs(t) {
		sol, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		// Uneven demand over a seeded subset of pairs, so no flow's
		// share is the same as another's.
		rng := rand.New(rand.NewSource(int64(gi)))
		traffic := make(Traffic)
		for i := range graph.NodeID(g.N()) {
			for j := range graph.NodeID(g.N()) {
				if i != j && rng.Intn(3) > 0 {
					traffic[[2]graph.NodeID{i, j}] = 1 + rng.Int63n(9)
				}
			}
		}
		for _, scheme := range []PricingScheme{SchemeVCG, SchemeDeclaredCost} {
			cfg := ExecConfig{
				TrueCosts:          sol.Costs,
				DeclaredCosts:      sol.Costs,
				Traffic:            traffic,
				DeliveryValue:      120,
				UndeliveredPenalty: 70,
				Scheme:             scheme,
			}
			base, err := Execute(sol.Routing, sol.Pricing, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int64{2, 5} {
				scaled := make(Traffic, len(traffic))
				for f, packets := range traffic {
					scaled[f] = m * packets
				}
				cfg.Traffic = scaled
				got, err := Execute(sol.Routing, sol.Pricing, cfg)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("graph %d, %v, m=%d", gi, scheme, m)
				if got.Delivered != m*base.Delivered || got.Undelivered != m*base.Undelivered {
					t.Errorf("%s: delivered %d/%d, want %d/%d", where, got.Delivered, got.Undelivered, m*base.Delivered, m*base.Undelivered)
				}
				if !scaledBy(got.Utilities, base.Utilities, m) {
					t.Errorf("%s: utilities %v, want %v times %d", where, got.Utilities, base.Utilities, m)
				}
				for name, pair := range map[string][2]map[graph.NodeID]PaymentList{
					"obligations": {got.Obligations, base.Obligations},
					"reported":    {got.Reported, base.Reported},
				} {
					if len(pair[0]) != len(pair[1]) {
						t.Errorf("%s: %d payers' %s, want %d", where, len(pair[0]), name, len(pair[1]))
					}
					for payer, want := range pair[1] {
						if !scaledBy(pair[0][payer], want, m) {
							t.Errorf("%s: %s of %d: %v, want %v times %d", where, name, payer, pair[0][payer], want, m)
						}
						paid += len(want)
					}
				}
			}
		}
	}
	if paid == 0 {
		t.Fatal("no payment was compared")
	}
}

// scaledBy reports whether got holds exactly want's keys, each value
// multiplied by m.
func scaledBy[M ~map[graph.NodeID]int64](got, want M, m int64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != m*v {
			return false
		}
	}
	return true
}
