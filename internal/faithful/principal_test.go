package faithful_test

import (
	"maps"
	"testing"

	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/rational"
	"repro/internal/scenario"
)

// TestPrincipalMatchesPlainFPSS checks that the extended specification
// leaves the principal's computation unchanged (§4.2): with a
// catalogued protocol deviation at any one node of a reliable network,
// every node ends faithful.Run holding the DATA1, DATA2 and DATA3* that
// fpss.Run gives it. Lossy networks are left out: there the forward
// copies draw on the per-link drop streams, so the two runs lose
// different messages.
func TestPrincipalMatchesPlainFPSS(t *testing.T) {
	specs := []scenario.Spec{{Family: scenario.Figure1}}
	if !testing.Short() {
		smoke, ok := scenario.LookupSuite("smoke")
		if !ok {
			t.Fatal("smoke suite not registered")
		}
		specs = append(specs, smoke.Specs(1)...)
		for seed := int64(1); seed <= 6; seed++ {
			specs = append(specs, scenario.Spec{Family: scenario.Random, N: 7, Seed: seed})
		}
	}
	var devs []*rational.Deviation
	for _, list := range [][]*rational.Deviation{
		rational.Catalogue(true), rational.LossCatalogue(true), rational.ShardCatalogue(),
	} {
		devs = append(devs, list...)
	}

	plays := 0
	for _, sp := range specs {
		comp, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if comp.Params.Loss.Enabled() {
			continue
		}
		g := comp.Graph
		for i := 0; i < g.N(); i++ {
			id := graph.NodeID(i)
			for _, d := range devs {
				ctx := rational.Ctx{Graph: g, Node: id}
				// Two builds: a strategy may keep per-play state.
				plainStrat, ok := d.ProtocolStrategy(ctx)
				if !ok {
					continue
				}
				protocol, _ := d.ProtocolStrategy(ctx)
				var faithStrat *faithful.Strategy
				if protocol != nil {
					faithStrat = &faithful.Strategy{Protocol: *protocol}
				}
				plain, err := fpss.Run(fpss.Config{Graph: g, Strategies: map[graph.NodeID]*fpss.Strategy{id: plainStrat}})
				if err != nil {
					t.Fatal(err)
				}
				faith, err := faithful.Run(faithful.Config{Graph: g, Strategies: map[graph.NodeID]*faithful.Strategy{id: faithStrat}})
				if err != nil {
					t.Fatal(err)
				}
				for v, pn := range plain.Nodes {
					fn := faith.Nodes[v]
					if !maps.Equal(pn.CostsView(), fn.CostsView()) ||
						!pn.RoutingView().Equal(fn.RoutingView()) ||
						!pn.PricingView().Equal(fn.PricingView()) {
						t.Errorf("%s, %s at node %d: node %d's tables differ between fpss.Run and faithful.Run",
							sp.Describe(), d.Name(), id, v)
					}
				}
				plays++
			}
		}
	}
	t.Logf("%d plays", plays)
}
