package live

import (
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/rational"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestServerRouteAndPay serves the paper's Figure-1 scenario and
// checks Route answers against the central solution and, under both
// pricing schemes, every Pay answer against fpss.Execute's obligation
// for a one-packet flow over the central tables.
func TestServerRouteAndPay(t *testing.T) {
	for _, scheme := range []fpss.PricingScheme{fpss.SchemeVCG, fpss.SchemeDeclaredCost} {
		sp := scenario.Spec{Family: scenario.Figure1, Scheme: scheme}
		srv, err := NewServer(sp)
		if err != nil {
			t.Fatal(err)
		}

		comp, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := fpss.ComputeCentral(comp.Graph)
		if err != nil {
			t.Fatal(err)
		}

		n := comp.Graph.N()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				resp := srv.Dispatch(Request{Op: OpRoute, Src: src, Dst: dst})
				if !resp.OK {
					t.Fatalf("route %d->%d: %s", src, dst, resp.Err)
				}
				want := sol.Routing[graph.NodeID(src)][graph.NodeID(dst)]
				if int64(want.Cost) != resp.Cost || len(want.Path) != len(resp.Path) {
					t.Fatalf("route %d->%d: got cost %d path %v, central %+v", src, dst, resp.Cost, resp.Path, want)
				}
				for i, h := range want.Path {
					if int(h) != resp.Path[i] {
						t.Fatalf("route %d->%d hop %d: got %v, central %v", src, dst, i, resp.Path, want.Path)
					}
				}

				flow := [2]graph.NodeID{graph.NodeID(src), graph.NodeID(dst)}
				exec, err := fpss.Execute(sol.Routing, sol.Pricing, fpss.ExecConfig{
					TrueCosts:     sol.Costs,
					DeclaredCosts: sol.Costs,
					Traffic:       fpss.Traffic{flow: 1},
					Scheme:        scheme,
				})
				if err != nil {
					t.Fatal(err)
				}
				owed := exec.Obligations[flow[0]]
				pay := srv.Dispatch(Request{Op: OpPay, Src: src, Dst: dst})
				if !pay.OK {
					t.Fatalf("%v pay %d->%d: %s", scheme, src, dst, pay.Err)
				}
				got := make(fpss.PaymentList, len(pay.Payments))
				for _, p := range pay.Payments {
					got[graph.NodeID(p.To)] = p.Amount
				}
				if !maps.Equal(got, owed) || pay.Total != owed.Total() {
					t.Fatalf("%v pay %d->%d: got %v (total %d), Execute owes %v", scheme, src, dst, got, pay.Total, owed)
				}
			}
		}

		stats := srv.Dispatch(Request{Op: OpStats})
		if !stats.OK || stats.Stats == nil {
			t.Fatalf("stats: %+v", stats)
		}
		if stats.Stats.Divergence != 0 {
			t.Fatalf("honest reliable epoch diverges from central: %+v", stats.Stats)
		}
		if stats.Stats.Net.Sent == 0 {
			t.Fatalf("the epoch's run reports no construction traffic: %+v", stats.Stats.Net)
		}
	}
}

// TestServerDifferentialSmokeSuite pins, for every smoke-suite spec,
// the served tables byte-identical to the central solution.
func TestServerDifferentialSmokeSuite(t *testing.T) {
	suite, ok := scenario.LookupSuite("smoke")
	if !ok {
		t.Fatal("smoke suite not registered")
	}
	for _, sp := range suite.Specs(1) {
		sp := sp
		t.Run(sp.Describe(), func(t *testing.T) {
			t.Parallel()
			srv, err := NewServer(sp)
			if err != nil {
				t.Fatal(err)
			}
			routing, pricing := srv.Tables()

			comp, err := sp.Compile()
			if err != nil {
				t.Fatal(err)
			}
			sol, err := fpss.ComputeCentral(comp.Graph)
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < comp.Graph.N(); i++ {
				id := graph.NodeID(i)
				if !routing[id].Equal(sol.Routing[id]) {
					t.Fatalf("node %d: served routing != central", i)
				}
				if !pricing[id].Equal(sol.Pricing[id]) {
					t.Fatalf("node %d: served pricing != central", i)
				}
			}
		})
	}
}

// TestServerChurnAdvance walks a churn timeline live: every epoch
// re-converges in place (no restart), matches the epoch's central
// solution exactly, and reports the counters of an fpss.Run on that
// epoch's graph.
func TestServerChurnAdvance(t *testing.T) {
	sp := scenario.Spec{
		Family:   scenario.Random,
		N:        8,
		Workload: scenario.WorkloadAllPairs,
		Seed:     3,
		Churn:    scenario.Churn{Epochs: 3, Joins: 2, Leaves: 1},
	}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Epochs() != 3 {
		t.Fatalf("want 3 epochs, got %d", srv.Epochs())
	}
	for e := 0; ; e++ {
		stats := srv.Dispatch(Request{Op: OpStats})
		if !stats.OK {
			t.Fatal(stats.Err)
		}
		if stats.Stats.Epoch != e {
			t.Fatalf("want epoch %d, got %d", e, stats.Stats.Epoch)
		}
		if stats.Stats.Divergence != 0 {
			t.Fatalf("epoch %d: %d nodes diverge from the epoch's central solution", e, stats.Stats.Divergence)
		}
		comp := srv.tl.Epochs[e].Compiled
		res, err := fpss.Run(fpss.Config{Graph: comp.Graph, Loss: comp.Params.Loss})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stats.Stats.Net, res.Phase2) {
			t.Fatalf("epoch %d: Stats.Net = %+v, fpss.Run counters %+v", e, stats.Stats.Net, res.Phase2)
		}
		if e == srv.Epochs()-1 {
			break
		}
		adv := srv.Dispatch(Request{Op: OpInject, Advance: true})
		if !adv.OK {
			t.Fatalf("advance from epoch %d: %s", e, adv.Err)
		}
	}
	// Advancing past the end must fail cleanly.
	if resp := srv.Dispatch(Request{Op: OpInject, Advance: true}); resp.OK {
		t.Fatal("advance past final epoch succeeded")
	}
}

// TestServerConcurrentAdvance races three Advances on a four-epoch
// timeline: each must step exactly one epoch, so together they return
// epochs 1, 2 and 3 and leave the server at epoch 3.
func TestServerConcurrentAdvance(t *testing.T) {
	sp := scenario.Spec{
		Family:   scenario.Random,
		N:        6,
		Workload: scenario.WorkloadAllPairs,
		Seed:     3,
		Churn:    scenario.Churn{Epochs: 4, Joins: 1, Leaves: 1},
	}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Epochs() != 4 {
		t.Fatalf("want 4 epochs, got %d", srv.Epochs())
	}
	const advances = 3
	got := make([]Response, advances)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = srv.Dispatch(Request{Op: OpInject, Advance: true})
		}()
	}
	wg.Wait()
	var epochs []int
	for _, resp := range got {
		if !resp.OK {
			t.Fatalf("advance failed: %s", resp.Err)
		}
		epochs = append(epochs, resp.Epoch)
	}
	slices.Sort(epochs)
	if !slices.Equal(epochs, []int{1, 2, 3}) {
		t.Errorf("advances returned epochs %v, want [1 2 3]", epochs)
	}
	if e := srv.Dispatch(Request{Op: OpStats}).Stats.Epoch; e != advances {
		t.Errorf("server at epoch %d after %d advances, want %d", e, advances, advances)
	}
}

// TestServerInjectDeviant installs a construction-phase deviation on a
// resident node: the epoch re-converges with the manipulated tables
// (divergence > 0 under the declared-cost scheme). The deviant is
// Figure 1's node C inflating its cost from 1 to ĉ=5, the paper's
// Example 1, which moves X→Z from X-D-C-Z at cost 2 to X-A-Z at
// cost 5.
func TestServerInjectDeviant(t *testing.T) {
	sp := scenario.Spec{Family: scenario.Figure1, Scheme: fpss.SchemeDeclaredCost}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	g := srv.tl.Epochs[0].Compiled.Graph
	byName := func(name string) int {
		id, ok := g.ByName(name)
		if !ok {
			t.Fatalf("Figure 1 has no node %s", name)
		}
		return int(id)
	}
	a, c, x, z := byName("A"), byName("C"), byName("X"), byName("Z")

	resp := srv.Dispatch(Request{Op: OpInject, Node: c, Deviation: "misreport-cost-inflate"})
	if !resp.OK {
		t.Fatal(resp.Err)
	}
	stats := srv.Dispatch(Request{Op: OpStats}).Stats
	if stats.Deviant != "misreport-cost-inflate" || stats.DeviantNode != c {
		t.Fatalf("deviant not recorded: %+v", stats)
	}
	if stats.Divergence == 0 {
		t.Fatal("cost inflation left the converged tables identical to the honest central solution")
	}
	route := srv.Dispatch(Request{Op: OpRoute, Src: x, Dst: z})
	if !route.OK || !slices.Equal(route.Path, []int{x, a, z}) || route.Cost != 5 {
		t.Fatalf("X→Z with C declaring ĉ=5: got %+v, want X-A-Z at cost 5", route)
	}

	// A checker-only deviation has no live realization.
	if resp := srv.Dispatch(Request{Op: OpInject, Node: c, Deviation: "misreport-loss-blame"}); resp.OK {
		t.Fatal("injected a deviation with no protocol part")
	}
}

// TestServerDeviantFixpointRepeats injects the same deviant three
// times; each inject rebuilds the epoch from scratch and reaches one
// fixpoint. Every run serves X→Z as X-A-Z at cost 5 (C declaring ĉ=5,
// Example 1), the same tables and the same network counters.
func TestServerDeviantFixpointRepeats(t *testing.T) {
	sp := scenario.Spec{Family: scenario.Figure1, Scheme: fpss.SchemeDeclaredCost}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	g := srv.tl.Epochs[0].Compiled.Graph
	byName := func(name string) int {
		id, ok := g.ByName(name)
		if !ok {
			t.Fatalf("Figure 1 has no node %s", name)
		}
		return int(id)
	}
	a, c, x, z := byName("A"), byName("C"), byName("X"), byName("Z")

	var (
		firstRouting map[graph.NodeID]fpss.RoutingTable
		firstPricing map[graph.NodeID]fpss.PricingTable
		firstNet     sim.Counters
	)
	for run := 0; run < 3; run++ {
		if resp := srv.Dispatch(Request{Op: OpInject, Node: c, Deviation: "misreport-cost-inflate"}); !resp.OK {
			t.Fatal(resp.Err)
		}
		route := srv.Dispatch(Request{Op: OpRoute, Src: x, Dst: z})
		if !route.OK || !slices.Equal(route.Path, []int{x, a, z}) || route.Cost != 5 {
			t.Fatalf("run %d: X→Z with C declaring ĉ=5: got %+v, want X-A-Z at cost 5", run, route)
		}
		routing, pricing := srv.Tables()
		net := srv.Dispatch(Request{Op: OpStats}).Stats.Net
		if run == 0 {
			firstRouting, firstPricing, firstNet = routing, pricing, net
			continue
		}
		if !maps.EqualFunc(routing, firstRouting, fpss.RoutingTable.Equal) ||
			!maps.EqualFunc(pricing, firstPricing, fpss.PricingTable.Equal) {
			t.Errorf("run %d: served tables differ from run 0", run)
		}
		if !reflect.DeepEqual(net, firstNet) {
			t.Errorf("run %d: counters %+v, run 0 had %+v", run, net, firstNet)
		}
	}
}

// TestServerPayDeclaredCostUnderDeviants pins Pay under the
// declared-cost scheme to the batch path's rule while a deviant runs:
// each transit node is paid its own DATA1 declaration. For every
// catalogued deviation with a protocol part, injected at every node of
// Figure 1, every Pay answer equals fpss.Execute's one-packet
// obligation over an fpss.Run with the same strategy. A deviant that
// tampers with relayed costs leaves the nodes' DATA1 views
// disagreeing, so no one node's view prices every transit. A flow
// whose packet the deviant's tables strand owes nothing in Execute,
// while Pay still answers from the source's own tables, so only
// delivered flows are compared.
func TestServerPayDeclaredCostUnderDeviants(t *testing.T) {
	sp := scenario.Spec{Family: scenario.Figure1, Scheme: fpss.SchemeDeclaredCost}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	g := srv.tl.Epochs[0].Compiled.Graph
	n := g.N()
	trueCosts := make(fpss.CostTable, n)
	for i := 0; i < n; i++ {
		trueCosts[graph.NodeID(i)] = g.Cost(graph.NodeID(i))
	}
	checked := 0
	for _, family := range [][]*rational.Deviation{
		rational.Catalogue(true),
		rational.LossCatalogue(true),
		rational.ShardCatalogue(),
	} {
		for _, d := range family {
			for node := 0; node < n; node++ {
				strat, ok := d.ProtocolStrategy(rational.Ctx{Graph: g, Node: graph.NodeID(node)})
				if !ok {
					break
				}
				if resp := srv.Dispatch(Request{Op: OpInject, Node: node, Deviation: d.Name()}); !resp.OK {
					t.Fatalf("inject %s at %d: %s", d.Name(), node, resp.Err)
				}
				res, err := fpss.Run(fpss.Config{Graph: g, Strategies: map[graph.NodeID]*fpss.Strategy{graph.NodeID(node): strat}})
				if err != nil {
					t.Fatal(err)
				}
				// The tables and declarations rational.PlainSystem
				// executes over.
				routing := make(map[graph.NodeID]fpss.RoutingTable, n)
				pricing := make(map[graph.NodeID]fpss.PricingTable, n)
				declared := make(fpss.CostTable, n)
				for id, nd := range res.Nodes {
					routing[id], pricing[id], declared[id] = nd.RoutingView(), nd.PricingView(), nd.DeclaredCost()
				}
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if src == dst {
							continue
						}
						flow := [2]graph.NodeID{graph.NodeID(src), graph.NodeID(dst)}
						exec, err := fpss.Execute(routing, pricing, fpss.ExecConfig{
							TrueCosts:     trueCosts,
							DeclaredCosts: declared,
							Traffic:       fpss.Traffic{flow: 1},
							Scheme:        fpss.SchemeDeclaredCost,
						})
						if err != nil {
							t.Fatal(err)
						}
						if exec.Delivered == 0 {
							continue
						}
						checked++
						owed := exec.Obligations[flow[0]]
						pay := srv.Dispatch(Request{Op: OpPay, Src: src, Dst: dst})
						got := make(fpss.PaymentList, len(pay.Payments))
						for _, p := range pay.Payments {
							got[graph.NodeID(p.To)] = p.Amount
						}
						if !maps.Equal(got, owed) || pay.Total != owed.Total() {
							t.Errorf("%s at %d: pay %d->%d: got %v (total %d, err %q), Execute owes %v",
								d.Name(), node, src, dst, got, pay.Total, pay.Err, owed)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no delivered flow to compare")
	}
}

// Tables snapshots the resident principals' converged DATA2/DATA3*,
// the exact tables Route and Pay serve from. The differential suite
// pins them byte-identical to the central solution.
func (s *Server) Tables() (map[graph.NodeID]fpss.RoutingTable, map[graph.NodeID]fpss.PricingTable) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	routing := make(map[graph.NodeID]fpss.RoutingTable, len(s.st.nodes))
	pricing := make(map[graph.NodeID]fpss.PricingTable, len(s.st.nodes))
	for i, nd := range s.st.nodes {
		routing[graph.NodeID(i)] = nd.RoutingView()
		pricing[graph.NodeID(i)] = nd.PricingView()
	}
	return routing, pricing
}
