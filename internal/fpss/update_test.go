package fpss

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestComputeRoutingNoViews(t *testing.T) {
	// With no neighbor views, only direct-neighbor routes exist.
	rt, _ := ComputeTables(new(ComputeScratch), 0, []graph.NodeID{1, 2}, CostTable{0: 1, 1: 2, 2: 3}, make([]NeighborView, 2))
	if rt.Len() != 2 {
		t.Fatalf("routes = %d, want 2", rt.Len())
	}
	for _, v := range []graph.NodeID{1, 2} {
		e, ok := rt.Get(v)
		if !ok || e.Cost != 0 || !e.Path.Equal(graph.Path{0, v}) {
			t.Errorf("route to %d = %+v", v, e)
		}
	}
}

func TestComputeRoutingUsesNeighborInfo(t *testing.T) {
	// 0—1—9: node 0 learns the 9 route through 1's view.
	views := []NeighborView{
		{Routing: RoutingTable{
			9: {Cost: 0, Path: graph.Path{1, 9}},
		}},
	}
	rt, _ := ComputeTables(new(ComputeScratch), 0, []graph.NodeID{1}, CostTable{0: 1, 1: 5, 9: 2}, views)
	e, ok := rt.Get(9)
	if !ok {
		t.Fatal("no route to 9")
	}
	if e.Cost != 5 {
		t.Errorf("cost = %d, want 5 (transit through 1)", e.Cost)
	}
	if !e.Path.Equal(graph.Path{0, 1, 9}) {
		t.Errorf("path = %v", e.Path)
	}
}

func TestComputeRoutingSkipsUnknownCosts(t *testing.T) {
	// Neighbor cost missing from DATA1 ⇒ its advertised routes are
	// unusable until phase 1 completes.
	views := []NeighborView{
		{Routing: RoutingTable{9: {Cost: 0, Path: graph.Path{1, 9}}}},
	}
	rt, _ := ComputeTables(new(ComputeScratch), 0, []graph.NodeID{1}, CostTable{0: 1}, views)
	if _, ok := rt.Get(9); ok {
		t.Error("route built without knowing transit cost")
	}
	// The direct route to 1 itself needs no cost knowledge.
	if _, ok := rt.Get(1); !ok {
		t.Error("direct route missing")
	}
}

func TestComputeRoutingPrefersCheaperThenShorterThenLex(t *testing.T) {
	// Two neighbors both reach 9; neighbor 1 has transit cost 1,
	// neighbor 2 transit cost 3.
	views := []NeighborView{
		{Routing: RoutingTable{9: {Cost: 0, Path: graph.Path{1, 9}}}},
		{Routing: RoutingTable{9: {Cost: 0, Path: graph.Path{2, 9}}}},
	}
	rt, _ := ComputeTables(new(ComputeScratch), 0, []graph.NodeID{1, 2}, CostTable{0: 1, 1: 1, 2: 3}, views)
	if rt[9].Cost != 1 || !rt[9].Path.Equal(graph.Path{0, 1, 9}) {
		t.Errorf("route = %+v, want via 1", rt[9])
	}
	// Equal transit costs: shorter path wins.
	views[1] = NeighborView{Routing: RoutingTable{9: {Cost: 0, Path: graph.Path{2, 5, 9}}}}
	rt, _ = ComputeTables(new(ComputeScratch), 0, []graph.NodeID{1, 2}, CostTable{0: 1, 1: 2, 2: 2, 5: 0}, views)
	if !rt[9].Path.Equal(graph.Path{0, 1, 9}) {
		t.Errorf("hop tie-break failed: %v", rt[9].Path)
	}
}

func TestComputePricingDirectNeighborContribution(t *testing.T) {
	// Triangle 0-1-9 plus edge 0-9: for dest 9 via transit 1, the
	// direct 0-9 edge is the avoid path (contribution 0).
	views := []NeighborView{
		{Routing: RoutingTable{9: {Cost: 0, Path: graph.Path{1, 9}}}},
		{Routing: RoutingTable{}},
	}
	costs := CostTable{0: 1, 1: 4, 9: 2}
	routing := RoutingTable{
		// Force a route through 1 to make 1 a transit node (as if the
		// direct edge were costly — synthetic input to the pure fn).
		9: {Cost: 4, Path: graph.Path{0, 1, 9}},
	}
	pt := new(ComputeScratch).computePricing(0, []graph.NodeID{1, 9}, denseCosts(nil, costs), routing, views)
	e, ok := pt[9][1]
	if !ok {
		t.Fatal("no price entry for transit 1")
	}
	// B = 0 (direct edge 0-9), price = ĉ_1 + 0 − d(0,9) = 4 + 0 − 4 = 0.
	if e.Price != 0 {
		t.Errorf("price = %d, want 0", e.Price)
	}
	if !e.Avoid.Equal(graph.Path{0, 9}) {
		t.Errorf("witness = %v, want direct edge", e.Avoid)
	}
	if len(e.Tags) != 1 || e.Tags[0] != 9 {
		t.Errorf("tags = %v, want [9]", e.Tags)
	}
}

func TestComputePricingWaitsForAvoidInfo(t *testing.T) {
	// Only neighbor is 1 and 1's LCP to 9 goes through... itself (1 is
	// the transit under scrutiny), and 1 has no pricing entry yet: no
	// price entry can be built.
	views := []NeighborView{
		{Routing: RoutingTable{9: {Cost: 0, Path: graph.Path{1, 9}}}},
	}
	costs := CostTable{0: 1, 1: 4, 9: 2}
	routing := RoutingTable{9: {Cost: 4, Path: graph.Path{0, 1, 9}}}
	pt := new(ComputeScratch).computePricing(0, []graph.NodeID{1}, denseCosts(nil, costs), routing, views)
	if pt.Row(9) != nil {
		t.Error("price entry built without avoid-k information")
	}
}

func TestComputePricingRecoverBFromNeighborPrice(t *testing.T) {
	// Chain 0—1—2—9 with a detour at 1: 1 advertises an avoid-2 price
	// for dest 9; 0 recovers B and adds its own hop.
	costs := CostTable{0: 1, 1: 2, 2: 3, 9: 1}
	views := []NeighborView{
		{
			Routing: RoutingTable{9: {Cost: 3, Path: graph.Path{1, 2, 9}}},
			Pricing: PricingTable{9: {2: PriceEntry{
				Transit: 2,
				Price:   3 + 10 - 3, // ĉ_2 + B_1 − d_1 with B_1 = 10
				Avoid:   graph.Path{1, 7, 9},
				Tags:    []graph.NodeID{7},
			}}},
		},
	}
	routing := RoutingTable{9: {Cost: 5, Path: graph.Path{0, 1, 2, 9}}}
	pt := new(ComputeScratch).computePricing(0, []graph.NodeID{1}, denseCosts(nil, costs), routing, views)
	e, ok := pt[9][2]
	if !ok {
		t.Fatal("no entry for transit 2")
	}
	// B_0 = ĉ_1 + B_1 = 2 + 10 = 12; price = ĉ_2 + B_0 − d_0 = 3+12−5 = 10.
	if e.Price != 10 {
		t.Errorf("price = %d, want 10", e.Price)
	}
	if !e.Avoid.Equal(graph.Path{0, 1, 7, 9}) {
		t.Errorf("witness = %v", e.Avoid)
	}
}

// TestVerifyTablesRejectsEveryDifference checks VerifyTables on every
// node of a converged Figure 1 run: each node's own tables, padded or
// not, read as a match, and each hand-built edit that makes them differ
// from ComputeTables' reads as a mismatch.
func TestVerifyTablesRejectsEveryDifference(t *testing.T) {
	res, err := Run(Config{Graph: graph.Figure1()})
	if err != nil {
		t.Fatal(err)
	}
	for id, node := range res.Nodes {
		d := node.Derivation()
		costs := node.CostsView()
		views := make([]NeighborView, len(d.neighbors))
		for i, v := range d.neighbors {
			views[i], _ = d.View(v)
		}
		check := func(what string, views []NeighborView, routing RoutingTable, pricing PricingTable, want bool) {
			t.Helper()
			wantR, wantP := ComputeTables(new(ComputeScratch), id, d.neighbors, costs, views)
			if equal := routing.Equal(wantR) && pricing.Equal(wantP); equal != want {
				t.Fatalf("node %d, %s: Equal to ComputeTables reads %v, want %v", id, what, equal, want)
			}
			if got := VerifyTables(new(ComputeScratch), id, d.neighbors, costs, views, routing, pricing); got != want {
				t.Errorf("node %d, %s: VerifyTables = %v, want %v", id, what, got, want)
			}
		}
		own, ownP := node.RoutingView(), node.PricingView()
		n := len(own)
		check("own tables", views, own, ownP, true)
		check("own tables padded", views, cloneTable(own, n+2), cloneTable(ownP, n+2), true)

		// A route and a row past the tables' length, and a non-nil empty
		// row where ComputeTables leaves none: a neighbor's, whose direct
		// route has no transit.
		routing := cloneTable(own, n+1)
		routing[n] = RouteEntry{Path: graph.Path{id, graph.NodeID(n)}}
		check("a route past the table", views, routing, ownP, false)
		pricing := cloneTable(ownP, n+1)
		pricing[n] = map[graph.NodeID]PriceEntry{}
		check("a row past the table", views, own, pricing, false)
		pricing = slices.Clone(ownP)
		pricing[d.neighbors[0]] = map[graph.NodeID]PriceEntry{}
		check("an empty row", views, own, pricing, false)

		// A route to the principal itself, over a forged view in which
		// a neighbor v offers a loop-free route "to" it: the route the
		// kernels would derive for that slot, which ComputeTables never
		// fills.
		v := d.neighbors[0]
		forged := slices.Clone(views)
		forged[0].Routing = slices.Clone(views[0].Routing)
		forged[0].Routing[id] = RouteEntry{Path: graph.Path{v, d.neighbors[len(d.neighbors)-1]}}
		routing = slices.Clone(own)
		routing[id] = RouteEntry{Cost: costs[v], Path: graph.Path{id, v, d.neighbors[len(d.neighbors)-1]}}
		check("a route to itself", forged, routing, ownP, false)

		// A row at the principal's own slot, one changed price and one
		// changed tag set, each built from the first row with a transit.
		j, row := graph.NodeID(-1), map[graph.NodeID]PriceEntry(nil)
		for j, row = range ownP.All() {
			break
		}
		if row == nil {
			t.Fatalf("node %d prices no route", id)
		}
		pricing = slices.Clone(ownP)
		pricing[id] = row
		check("a row for itself", views, own, pricing, false)
		k := slices.Min(slices.Collect(maps.Keys(row)))
		for what, edit := range map[string]func(*PriceEntry){
			"a changed price": func(e *PriceEntry) { e.Price++ },
			"a changed tag":   func(e *PriceEntry) { e.Tags = append(slices.Clone(e.Tags), graph.NodeID(n)) },
		} {
			e := row[k]
			edit(&e)
			pricing = slices.Clone(ownP)
			pricing[j] = maps.Clone(row)
			pricing[j][k] = e
			check(what, views, own, pricing, false)
		}
	}
}

// Property: on random biconnected graphs, a single global fixpoint
// iteration of the pure update functions (synchronous sweeps) matches
// the centralized solution — independent of the event-driven path.
func TestPropertySynchronousFixpointMatchesCentral(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(rng.Int31n(4))
		g, err := graph.RandomBiconnected(n, int(rng.Int31n(int32(n))), 9, rng)
		if err != nil {
			return false
		}
		sol, err := ComputeCentral(g)
		if err != nil {
			return false
		}
		costs := make(CostTable, n)
		neighbors := make(map[graph.NodeID][]graph.NodeID, n)
		for i := 0; i < n; i++ {
			id := graph.NodeID(i)
			costs[id] = g.Cost(id)
			neighbors[id] = g.Neighbors(id)
		}
		routing := make(map[graph.NodeID]RoutingTable, n)
		pricing := make(map[graph.NodeID]PricingTable, n)
		// Synchronous rounds until stable.
		for round := 0; round < 4*n; round++ {
			changed := false
			for i := 0; i < n; i++ {
				id := graph.NodeID(i)
				views := make([]NeighborView, len(neighbors[id]))
				for k, v := range neighbors[id] {
					views[k] = NeighborView{Routing: routing[v], Pricing: pricing[v]}
				}
				nr, np := ComputeTables(new(ComputeScratch), id, neighbors[id], costs, views)
				if !nr.Equal(routing[id]) || !np.Equal(pricing[id]) {
					changed = true
				}
				routing[id] = nr
				pricing[id] = np
			}
			if !changed {
				break
			}
		}
		for i := 0; i < n; i++ {
			id := graph.NodeID(i)
			if !routing[id].Equal(sol.Routing[id]) || !pricing[id].Equal(sol.Pricing[id]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: distributed VCG prices are individually rational (price ≥
// declared transit cost) at every node for every entry.
func TestPropertyDistributedPricesIR(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(rng.Int31n(4))
		g, err := graph.RandomBiconnected(n, int(rng.Int31n(int32(n))), 9, rng)
		if err != nil {
			return false
		}
		res, err := Run(Config{Graph: g})
		if err != nil {
			return false
		}
		for _, node := range res.Nodes {
			for _, row := range node.PricingView() {
				for k, e := range row {
					if e.Price < g.Cost(k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: every pricing entry's witness path is a real path in the
// graph that avoids the transit node and starts/ends correctly.
func TestPropertyWitnessPathsValid(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(rng.Int31n(4))
		g, err := graph.RandomBiconnected(n, int(rng.Int31n(int32(n))), 9, rng)
		if err != nil {
			return false
		}
		res, err := Run(Config{Graph: g})
		if err != nil {
			return false
		}
		for id, node := range res.Nodes {
			for dst, row := range node.PricingView() {
				for k, e := range row {
					if e.Avoid.Contains(k) {
						return false
					}
					if e.Avoid[0] != id || e.Avoid[len(e.Avoid)-1] != graph.NodeID(dst) {
						return false
					}
					for i := 0; i+1 < len(e.Avoid); i++ {
						if !g.HasEdge(e.Avoid[i], e.Avoid[i+1]) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// BenchmarkDistributedConvergence runs both construction phases to
// quiescence and reports the messages they sent. The PrefAttach n=32
// rung is the convergence every epoch advance of a live server pays.
func BenchmarkDistributedConvergence(b *testing.B) {
	ring, err := graph.RingWithChords(16, 8, 10, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	pa, err := graph.PreferentialAttachment(32, 2, graph.UniformCost(10), rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		g    *graph.Graph
	}{{"ring/n=16", ring}, {"prefattach/n=32", pa}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = Run(Config{Graph: bc.g}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Phase2.Sent), "construction-msgs")
		})
	}
}
