package fpss

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func figure1IDs(t *testing.T, g *graph.Graph) (a, b, c, d, x, z graph.NodeID) {
	t.Helper()
	get := func(s string) graph.NodeID {
		id, ok := g.ByName(s)
		if !ok {
			t.Fatalf("missing node %s", s)
		}
		return id
	}
	return get("A"), get("B"), get("C"), get("D"), get("X"), get("Z")
}

func TestComputeCentralRejectsNonBiconnected(t *testing.T) {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	if _, err := ComputeCentral(g); !errors.Is(err, ErrNotBiconnected) {
		t.Errorf("err = %v, want ErrNotBiconnected", err)
	}
}

func TestCentralFigure1Routing(t *testing.T) {
	g := graph.Figure1()
	sol, err := ComputeCentral(g)
	if err != nil {
		t.Fatal(err)
	}
	_, _, c, d, x, z := figure1IDs(t, g)
	e := sol.Routing[x][z]
	if e.Cost != 2 {
		t.Errorf("cost(X→Z) = %d, want 2", e.Cost)
	}
	want := graph.Path{x, d, c, z}
	if !e.Path.Equal(want) {
		t.Errorf("LCP(X→Z) = %v, want X-D-C-Z", e.Path)
	}
}

func TestCentralFigure1VCGPrices(t *testing.T) {
	g := graph.Figure1()
	sol, err := ComputeCentral(g)
	if err != nil {
		t.Fatal(err)
	}
	_, _, c, d, x, z := figure1IDs(t, g)

	// p^C_{XZ} = c_C + cost(X→Z avoiding C) − cost(X→Z) = 1 + 5 − 2 = 4.
	if got := sol.Pricing[x][z][c].Price; got != 4 {
		t.Errorf("p^C(X→Z) = %d, want 4", got)
	}
	// p^D_{XZ} = 1 + cost(X→Z avoiding D) − 2 = 1 + (via A: 5) − 2 = 4.
	if got := sol.Pricing[x][z][d].Price; got != 4 {
		t.Errorf("p^D(X→Z) = %d, want 4", got)
	}
	// p^C_{DZ} = 1 + cost(D→Z avoiding C) − 1. Avoiding C: D-B-Z = 1000
	// vs D-X-A-Z = 6+5 = 11 → 11. So price = 11.
	if got := sol.Pricing[d][z][c].Price; got != 11 {
		t.Errorf("p^C(D→Z) = %d, want 11", got)
	}
}

func TestVCGPaymentOracleAgreesWithSolution(t *testing.T) {
	g := graph.Figure1()
	sol, err := ComputeCentral(g)
	if err != nil {
		t.Fatal(err)
	}
	for src, pt := range sol.Pricing {
		for dst, row := range pt {
			for k, e := range row {
				want, err := VCGPayment(g, src, graph.NodeID(dst), k)
				if err != nil {
					t.Fatal(err)
				}
				if e.Price != want {
					t.Errorf("price(%d→%d via %d) = %d, oracle %d", src, dst, k, e.Price, want)
				}
			}
		}
	}
}

func TestVCGPaymentNonTransit(t *testing.T) {
	g := graph.Figure1()
	_, b, _, d, x, z := figure1IDs(t, g)
	// B is not on LCP(X→Z); payment is zero.
	p, err := VCGPayment(g, x, z, b)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("payment to non-transit = %d, want 0", p)
	}
	// Endpoints earn nothing either.
	p, err = VCGPayment(g, d, z, z)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("payment to endpoint = %d, want 0", p)
	}
}

func TestPropertyVCGPricesAtLeastDeclaredCost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(5)
		g, err := graph.RandomBiconnected(n, rng.Intn(n), 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		for src, pt := range sol.Pricing {
			for dst, row := range pt {
				for k, e := range row {
					if e.Price < g.Cost(k) {
						t.Fatalf("price(%d→%d via %d) = %d below declared cost %d (violates individual rationality)",
							src, dst, k, e.Price, g.Cost(k))
					}
				}
			}
		}
	}
}

func runProtocol(t *testing.T, g *graph.Graph, strategies map[graph.NodeID]*Strategy) *Result {
	t.Helper()
	res, err := Run(Config{Graph: g, Strategies: strategies})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributedMatchesCentralFigure1(t *testing.T) {
	// A clique rides along: every route in it is direct, so each table
	// holds n absent pricing rows, and the protocol's must too.
	clique, err := graph.Clique([]graph.Cost{3, 1, 4, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{graph.Figure1(), clique} {
		sol, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		res := runProtocol(t, g, nil)
		for id, node := range res.Nodes {
			if !reflect.DeepEqual(node.RoutingView(), sol.Routing[id]) {
				t.Errorf("node %d routing differs from central", id)
			}
			if !reflect.DeepEqual(node.PricingView(), sol.Pricing[id]) {
				t.Errorf("node %d pricing differs from central\n got: %+v\nwant: %+v", id, node.PricingView(), sol.Pricing[id])
			}
		}
	}
}

func TestDistributedMatchesCentralRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(6)
		g, err := graph.RandomBiconnected(n, rng.Intn(2*n), 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		res := runProtocol(t, g, nil)
		for id, node := range res.Nodes {
			if !reflect.DeepEqual(node.RoutingView(), sol.Routing[id]) {
				t.Fatalf("trial %d: node %d routing differs from central", trial, id)
			}
			if !reflect.DeepEqual(node.PricingView(), sol.Pricing[id]) {
				t.Fatalf("trial %d: node %d pricing differs from central", trial, id)
			}
		}
	}
}

// orderSeeds is how many delivery orders the order-independence tests
// try per graph.
const orderSeeds = 16

// TestOrderIndependence runs the same handlers Run uses under many
// delivery orders. Each link's delay is drawn from a seed and fixed for
// the run, so every link stays FIFO while the interleaving across links
// changes. The fixpoint must not depend on that order: on Figure 1 and
// five random biconnected graphs, every run equals ComputeCentral.
func TestOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	graphs := []*graph.Graph{graph.Figure1()}
	for len(graphs) < 6 {
		g, err := graph.RandomBiconnected(4+rng.Intn(5), rng.Intn(6), 9, rng)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for gi, g := range graphs {
		sol, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		sent := make(map[int64]bool)
		for seed := int64(1); seed <= orderSeeds; seed++ {
			nodes, c := runWithLinkDelays(t, g, nil, seed)
			sent[c.Sent] = true
			for i, node := range nodes {
				id := graph.NodeID(i)
				if !node.RoutingView().Equal(sol.Routing[id]) || !node.PricingView().Equal(sol.Pricing[id]) {
					t.Fatalf("graph %d seed %d: node %d tables differ from central", gi, seed, id)
				}
			}
		}
		// Distinct message counts show the seeds really reorder delivery.
		if len(sent) < 2 {
			t.Errorf("graph %d: all %d seeds sent %v messages; the delays changed no order", gi, orderSeeds, sent)
		}
	}
}

// TestOrderIndependenceWithDeviator runs Figure 1 with C declaring ĉ=5
// under the same delivery orders: the lie's effect must not depend on
// the order either, so X→Z is X-A-Z at cost 5 under every seed
// (Example 1).
func TestOrderIndependenceWithDeviator(t *testing.T) {
	g := graph.Figure1()
	a, _, c, _, x, z := figure1IDs(t, g)
	lie := map[graph.NodeID]*Strategy{c: {DeclareCost: func(graph.Cost) graph.Cost { return 5 }}}
	for seed := int64(1); seed <= orderSeeds; seed++ {
		nodes, _ := runWithLinkDelays(t, g, lie, seed)
		if e := nodes[x].RoutingView()[z]; !e.Path.Equal(graph.Path{x, a, z}) || e.Cost != 5 {
			t.Errorf("seed %d: X→Z under ĉ=5 = %v at cost %d, want X-A-Z at cost 5", seed, e.Path, e.Cost)
		}
	}
}

// runWithLinkDelays converges both phases as Run does, on a network
// where every (from, to) link, the bank's included, gets a delay in
// [1, 8] drawn from seed on its first message.
func runWithLinkDelays(t *testing.T, g *graph.Graph, strategies map[graph.NodeID]*Strategy, seed int64) ([]*Node, sim.Counters) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	delays := make(map[[2]sim.Addr]int64)
	net := sim.NewNetwork(sim.WithDelay(func(from, to sim.Addr) int64 {
		d, ok := delays[[2]sim.Addr{from, to}]
		if !ok {
			d = 1 + rng.Int63n(8)
			delays[[2]sim.Addr{from, to}] = d
		}
		return d
	}))
	nodes := make([]*Node, g.N())
	for i := range nodes {
		id := graph.NodeID(i)
		nodes[i] = NewNode(id, g.Cost(id), g.AdjView(id), strategies[id])
		if err := net.Attach(sim.Addr(i), nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		net.Inject(BankAddr, sim.Addr(i), StartPhase2{})
	}
	c, err := net.Resume(maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, c
}

func TestDistributedDATA1Converges(t *testing.T) {
	g := graph.Figure1()
	res := runProtocol(t, g, nil)
	for id, node := range res.Nodes {
		costs := node.CostsView()
		if len(costs) != g.N() {
			t.Fatalf("node %d DATA1 has %d entries, want %d", id, len(costs), g.N())
		}
		for i := 0; i < g.N(); i++ {
			if costs[graph.NodeID(i)] != g.Cost(graph.NodeID(i)) {
				t.Errorf("node %d sees cost[%d] = %d, want %d", id, i, costs[graph.NodeID(i)], g.Cost(graph.NodeID(i)))
			}
		}
	}
}

func TestDeclaredCostLiePropagates(t *testing.T) {
	g := graph.Figure1()
	_, _, c, _, x, z := figure1IDs(t, g)
	strategies := map[graph.NodeID]*Strategy{
		c: {DeclareCost: func(graph.Cost) graph.Cost { return 5 }},
	}
	res := runProtocol(t, g, strategies)
	// Example 1: with ĉ_C = 5, X's LCP to Z flips to X-A-Z.
	e := res.Nodes[x].RoutingView()[z]
	a, _ := g.ByName("A")
	want := graph.Path{x, a, z}
	if !e.Path.Equal(want) {
		t.Errorf("LCP(X→Z) under lie = %v, want X-A-Z", e.Path)
	}
	if e.Cost != 5 {
		t.Errorf("cost under lie = %d, want 5", e.Cost)
	}
}

// TestZeroCostLieOscillatesToBudget pins how a lie can still keep
// loop-free FPSS from converging. On Figure 1, C's PostRouting
// advertises every route at cost 0, which turns destination A into
// Griffin, Shepherd and Wilfong's DISAGREE gadget: D prefers
// D-C-Z-A (cost ĉ_C = 1) while C's route avoids D, and C prefers
// C-D-X-A (cost 7, against 100 for C-Z-A) while D's route avoids C.
// With equal link delays both switch in the same round, every round,
// each rejecting the other's new route as a loop through itself, and
// B follows D. Only the advert budget ends it: D spends all of its
// budget, and B and C stop one advert short, because once D is silent
// their last switch reaches nobody who would answer. No honest table
// ever holds a loop on the way.
func TestZeroCostLieOscillatesToBudget(t *testing.T) {
	g := graph.Figure1()
	a, b, c, d, x, z := figure1IDs(t, g)
	zero := &Strategy{PostRouting: func(rt RoutingTable) RoutingTable {
		for j, e := range rt.All() {
			e.Cost = 0
			rt[j] = e
		}
		return rt
	}}
	net := sim.NewNetwork()
	watches := make([]*routeWatch, g.N())
	for i := range watches {
		id := graph.NodeID(i)
		var st *Strategy
		if id == c {
			st = zero
		}
		watches[i] = &routeWatch{Node: NewNode(id, g.Cost(id), g.AdjView(id), st), dst: a}
		if err := net.Attach(sim.Addr(i), watches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	for i := range watches {
		net.Inject(BankAddr, sim.Addr(i), StartPhase2{})
	}
	if _, err := net.Resume(maxSteps); err != nil {
		t.Fatal(err)
	}
	budget := watches[d].advertBudget()
	for _, tc := range []struct {
		node  graph.NodeID
		flips [2]graph.Path
	}{
		{c, [2]graph.Path{{c, z, a}, {c, d, x, a}}},
		{d, [2]graph.Path{{d, x, a}, {d, c, z, a}}},
	} {
		paths := watches[tc.node].paths
		if len(paths) < budget/2 {
			t.Errorf("node %d took %d routes to A, want one per round until the budget (%d adverts)", tc.node, len(paths), budget)
		}
		for i, p := range paths {
			if !p.Equal(tc.flips[i%2]) {
				t.Fatalf("node %d's route %d to A is %v, want %v", tc.node, i, p, tc.flips[i%2])
			}
		}
	}
	if got := watches[d].adverts; got != budget {
		t.Errorf("D sent %d adverts, want its whole budget %d", got, budget)
	}
	for _, id := range []graph.NodeID{b, c} {
		if got := watches[id].adverts; got != budget-1 {
			t.Errorf("node %d sent %d adverts, want one short of the budget %d", id, got, budget)
		}
	}
	for _, id := range []graph.NodeID{a, x, z} {
		if got := watches[id].adverts; got > 2*g.N() {
			t.Errorf("node %d, outside the gadget, sent %d adverts, want at most %d", id, got, 2*g.N())
		}
	}
	for _, w := range watches {
		if w.ID() != c && w.loop != "" {
			t.Errorf("honest node %d: %s", w.ID(), w.loop)
		}
	}
}

// routeWatch runs a node and, after each message it handles, logs its
// route to dst when that route changed, and the first route or avoid-k
// witness of its tables that passes through the node.
type routeWatch struct {
	*Node
	dst   graph.NodeID
	paths []graph.Path
	loop  string
}

func (w *routeWatch) Recv(ctx sim.Context, msg sim.Message) {
	w.Node.Recv(ctx, msg)
	if e, ok := w.RoutingView().Get(w.dst); ok && (len(w.paths) == 0 || !e.Path.Equal(w.paths[len(w.paths)-1])) {
		w.paths = append(w.paths, e.Path)
	}
	if w.loop == "" {
		w.loop = revisit(w.ID(), w.RoutingView(), w.PricingView())
	}
}

func TestExecuteFaithfulFigure1(t *testing.T) {
	g := graph.Figure1()
	res := runProtocol(t, g, nil)
	routing := make(map[graph.NodeID]RoutingTable)
	pricing := make(map[graph.NodeID]PricingTable)
	declared := make(CostTable)
	trueCosts := make(CostTable)
	for id, node := range res.Nodes {
		routing[id] = node.RoutingView()
		pricing[id] = node.PricingView()
		declared[id] = node.DeclaredCost()
		trueCosts[id] = g.Cost(id)
	}
	_, _, c, d, x, z := figure1IDs(t, g)
	exec, err := Execute(routing, pricing, ExecConfig{
		TrueCosts:          trueCosts,
		DeclaredCosts:      declared,
		Traffic:            Traffic{{x, z}: 10},
		DeliveryValue:      100,
		UndeliveredPenalty: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Delivered != 10 || exec.Undelivered != 0 {
		t.Fatalf("delivered/undelivered = %d/%d", exec.Delivered, exec.Undelivered)
	}
	// Route follows the LCP X-D-C-Z.
	if route, ok := forward(nil, routing, x, z); !ok || !route.Equal(graph.Path{x, d, c, z}) {
		t.Errorf("route = %v (delivered %v)", route, ok)
	}
	// X pays p^C + p^D = 4+4 per packet → utility 100·10 − 80 = 920.
	if got := exec.Utilities[x]; got != 920 {
		t.Errorf("u(X) = %d, want 920", got)
	}
	// C nets (4−1)·10 = 30; D the same.
	if got := exec.Utilities[c]; got != 30 {
		t.Errorf("u(C) = %d, want 30", got)
	}
	if got := exec.Utilities[d]; got != 30 {
		t.Errorf("u(D) = %d, want 30", got)
	}
	// Z neither pays nor transits.
	if got := exec.Utilities[z]; got != 0 {
		t.Errorf("u(Z) = %d, want 0", got)
	}
}

func TestExecutePaymentUnderreportProfitsInPlainFPSS(t *testing.T) {
	g := graph.Figure1()
	res := runProtocol(t, g, nil)
	routing := make(map[graph.NodeID]RoutingTable)
	pricing := make(map[graph.NodeID]PricingTable)
	trueCosts := make(CostTable)
	for id, node := range res.Nodes {
		routing[id] = node.RoutingView()
		pricing[id] = node.PricingView()
		trueCosts[id] = g.Cost(id)
	}
	_, _, _, _, x, z := figure1IDs(t, g)
	base := ExecConfig{
		TrueCosts:          trueCosts,
		Traffic:            Traffic{{x, z}: 10},
		DeliveryValue:      100,
		UndeliveredPenalty: 100,
	}
	honest, err := Execute(routing, pricing, base)
	if err != nil {
		t.Fatal(err)
	}
	lying := base
	lying.ReportPayment = map[graph.NodeID]func(PaymentList) PaymentList{
		x: func(PaymentList) PaymentList { return PaymentList{} }, // report nothing owed
	}
	liar, err := Execute(routing, pricing, lying)
	if err != nil {
		t.Fatal(err)
	}
	if liar.Utilities[x] <= honest.Utilities[x] {
		t.Errorf("underreporting should profit in plain FPSS: honest %d, liar %d",
			honest.Utilities[x], liar.Utilities[x])
	}
}

func TestExecuteUndeliveredOnBrokenTables(t *testing.T) {
	g := graph.Figure1()
	res := runProtocol(t, g, nil)
	routing := make(map[graph.NodeID]RoutingTable)
	pricing := make(map[graph.NodeID]PricingTable)
	trueCosts := make(CostTable)
	for id, node := range res.Nodes {
		routing[id] = node.RoutingView()
		pricing[id] = node.PricingView()
		trueCosts[id] = g.Cost(id)
	}
	_, _, _, d, x, z := figure1IDs(t, g)
	// Break D's next hop toward Z to create a black hole.
	routing[d][z] = RouteEntry{}
	exec, err := Execute(routing, pricing, ExecConfig{
		TrueCosts:          trueCosts,
		Traffic:            Traffic{{x, z}: 5},
		DeliveryValue:      100,
		UndeliveredPenalty: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Undelivered != 5 {
		t.Errorf("undelivered = %d, want 5", exec.Undelivered)
	}
	if exec.Utilities[x] != -300-exec.Reported[x].Total() {
		t.Errorf("u(X) = %d, want −300 − payments %d", exec.Utilities[x], exec.Reported[x].Total())
	}
}

func TestExecuteLoopDetection(t *testing.T) {
	// Two nodes pointing at each other for an unreachable dest.
	routing := map[graph.NodeID]RoutingTable{
		0: {2: RouteEntry{Cost: 0, Path: graph.Path{0, 1, 2}}},
		1: {2: RouteEntry{Cost: 0, Path: graph.Path{1, 0, 2}}},
	}
	exec, err := Execute(routing, map[graph.NodeID]PricingTable{}, ExecConfig{
		TrueCosts:          CostTable{0: 1, 1: 1, 2: 1},
		Traffic:            Traffic{{0, 2}: 3},
		DeliveryValue:      10,
		UndeliveredPenalty: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Delivered != 0 || exec.Undelivered != 3 {
		t.Errorf("loop should strand packets: %d/%d", exec.Delivered, exec.Undelivered)
	}
}

// clonePricing returns a deep copy of t's present rows, in a table of
// the same length, for a test that edits a copy: published tables are
// never edited.
func clonePricing(t PricingTable) PricingTable {
	out := make(PricingTable, len(t))
	for j, row := range t.All() {
		out[j] = make(map[graph.NodeID]PriceEntry, len(row))
		for k, e := range row {
			e.Avoid, e.Tags = slices.Clone(e.Avoid), slices.Clone(e.Tags)
			out[j][k] = e
		}
	}
	return out
}

func TestHashesDetectAnyTableChange(t *testing.T) {
	g := graph.Figure1()
	sol, err := ComputeCentral(g)
	if err != nil {
		t.Fatal(err)
	}
	rt := sol.Routing[0]
	h0 := rt.HashRouting()
	mut := slices.Clone(rt)
	d := keys(mut.All())[0]
	e := mut[d]
	e.Cost++
	mut[d] = e
	if mut.HashRouting() == h0 {
		t.Error("routing hash unchanged after cost mutation")
	}
	pt := sol.Pricing[4] // X has transit entries
	hp := pt.HashPricing()
	mutP := clonePricing(pt)
	d = keys(mutP.All())[0]
	for k := range mutP[d] {
		e := mutP[d][k]
		e.Tags = append(e.Tags, 99) // tag tampering must be visible
		mutP[d][k] = e
		break
	}
	if mutP.HashPricing() == hp {
		t.Error("pricing hash unchanged after tag mutation")
	}
	if pt.HashPricing() != hp {
		t.Error("hash not deterministic")
	}
}

func TestTableCloneAndEqual(t *testing.T) {
	g := graph.Figure1()
	sol, err := ComputeCentral(g)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ComputeCentral(g)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Routing[0].Equal(sol.Routing[0]) || again.Routing[1].Equal(sol.Routing[0]) {
		t.Error("routing Equal disagrees with a second solve")
	}
	if !again.Pricing[4].Equal(sol.Pricing[4]) || again.Pricing[0].Equal(sol.Pricing[4]) {
		t.Error("pricing Equal disagrees with a second solve")
	}
	// PaymentList helpers.
	pl := PaymentList{1: 5, 2: 7}
	if pl.Total() != 12 {
		t.Errorf("Total = %d", pl.Total())
	}
	plc := pl.Clone()
	plc[1] = 99
	if pl[1] != 5 {
		t.Error("PaymentList clone aliased")
	}
}

// TestAbsentSlotsInvisible pins that a table's content is its present
// slots: junk in an absent slot, such as a hook that rewrites every
// slot leaves behind, and extra absent slots at the end change no
// comparison, hash, count or message size.
func TestAbsentSlotsInvisible(t *testing.T) {
	sol, err := ComputeCentral(graph.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	clean, pt := sol.Routing[0], sol.Pricing[0]
	junk := slices.Clone(clean)
	junk[0] = RouteEntry{Cost: 40} // node 0's own slot is absent
	padded := append(slices.Clone(clean), RouteEntry{Cost: 40})
	for name, rt := range map[string]RoutingTable{"junk": junk, "padded": padded} {
		if _, ok := rt.Get(0); ok {
			t.Errorf("%s: Get reports the absent slot 0 present", name)
		}
		if !rt.Equal(clean) || !clean.Equal(rt) {
			t.Errorf("%s: not Equal to the clean table", name)
		}
		if rt.HashRouting() != clean.HashRouting() {
			t.Errorf("%s: hash differs from the clean table's", name)
		}
		if rt.Len() != clean.Len() {
			t.Errorf("%s: Len = %d, clean %d", name, rt.Len(), clean.Len())
		}
		if got, want := (Update{Routing: rt, Pricing: pt}).Size(), (Update{Routing: clean, Pricing: pt}).Size(); got != want {
			t.Errorf("%s: Update.Size = %d, clean %d", name, got, want)
		}
	}
}

func TestUpdateSizeCountsEntries(t *testing.T) {
	u := Update{
		From:    0,
		Routing: RoutingTable{1: {Path: graph.Path{0, 1}}, 2: {Path: graph.Path{0, 2}}},
		Pricing: PricingTable{1: {3: {}}, 2: {3: {}, 4: {}}},
	}
	if got := u.Size(); got != 1+2+3 {
		t.Errorf("Size = %d, want 6", got)
	}
}

func TestAllToAllTraffic(t *testing.T) {
	tr := AllToAllTraffic(3, 2)
	if len(tr) != 6 {
		t.Errorf("flows = %d, want 6", len(tr))
	}
	for _, f := range tr.Flows() {
		if tr[f] != 2 {
			t.Errorf("flow %v packets = %d", f, tr[f])
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil graph should error")
	}
}
