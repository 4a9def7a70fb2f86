package fpss

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// executeInFlowOrder is the reference for Execute: the same accounting,
// with the flows taken in Traffic.Flows() order, a fresh path per flow
// and every table looked up in the maps. The payers are the keys of
// Utilities before settlement.
func executeInFlowOrder(routing map[graph.NodeID]RoutingTable, pricing map[graph.NodeID]PricingTable, cfg ExecConfig) *ExecResult {
	res := &ExecResult{
		Utilities:   make(map[graph.NodeID]int64),
		Obligations: make(map[graph.NodeID]PaymentList),
		Reported:    make(map[graph.NodeID]PaymentList),
	}
	for id := range cfg.TrueCosts {
		res.Utilities[id] = 0
	}
	for _, flow := range cfg.Traffic.Flows() {
		src, dst := flow[0], flow[1]
		packets := cfg.Traffic[flow]
		if packets <= 0 || src == dst {
			continue
		}
		route, ok := forward(nil, routing, src, dst)
		if !ok {
			res.Undelivered += packets
			res.Utilities[src] -= cfg.UndeliveredPenalty * packets
			continue
		}
		res.Delivered += packets
		res.Utilities[src] += cfg.DeliveryValue * packets
		for _, k := range route.TransitNodes() {
			res.Utilities[k] -= int64(cfg.TrueCosts[k]) * packets
		}
		if res.Obligations[src] == nil {
			res.Obligations[src] = make(PaymentList)
		}
		AddObligation(res.Obligations[src], routing[src], pricing[src], dst, packets, cfg.Scheme, cfg.DeclaredCosts)
	}
	for _, id := range slices.Collect(maps.Keys(res.Utilities)) {
		truth := res.Obligations[id]
		if truth == nil {
			truth = make(PaymentList)
		}
		reported := truth.Clone()
		if hook := cfg.ReportPayment[id]; hook != nil {
			reported = hook(truth.Clone())
		}
		res.Reported[id] = reported
		res.Utilities[id] -= reported.Total()
		for k, amt := range reported {
			res.Utilities[k] += amt
		}
	}
	return res
}

// forward routes hop-by-hop using each hop's routing table, looked up
// in the map. It appends the realized path to path, returning it and
// whether dst was reached within a TTL.
func forward(path graph.Path, routing map[graph.NodeID]RoutingTable, src, dst graph.NodeID) (graph.Path, bool) {
	path = append(path, src)
	cur := src
	ttl := len(routing) + 2
	for hops := 0; hops < ttl; hops++ {
		if cur == dst {
			return path, true
		}
		e, ok := routing[cur].Get(dst)
		if !ok || len(e.Path) < 2 || e.Path[0] != cur {
			return path, false
		}
		next := e.Path[1]
		cur = next
		path = append(path, next)
	}
	return path, false
}

// TestExecuteFlowOrderFree checks that Execute, which accounts flows
// source by source over dense state, equals the reference that takes
// them in sorted order and looks every table up in the maps, on seeded
// deviant tables: routes whose next hops loop, point nowhere or point
// outside [0, n), routes that deliver through a path naming IDs outside
// it, absent routes and an absent table that strand flows, priced
// entries outside the range or at zero price, zero, negative and self
// flows, flows with an endpoint outside the range, and DATA4 misreports
// that invent payees. Repeated runs, each in a fresh map order, must
// all agree. One honest n=100 PrefAttach network on its central tables
// closes the test.
func TestExecuteFlowOrderFree(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(8)
		g, err := graph.RandomBiconnected(n, n, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		outside := func() graph.NodeID {
			return []graph.NodeID{-2, -1, graph.NodeID(n), graph.NodeID(n + 1)}[rng.Intn(4)]
		}
		// Draw in node and flow order, so each seed's tables are fixed.
		routing := make(map[graph.NodeID]RoutingTable, n)
		pricing := make(map[graph.NodeID]PricingTable, n)
		for i := 0; i < n; i++ {
			id := graph.NodeID(i)
			rt, pt := slices.Clone(sol.Routing[id]), clonePricing(sol.Pricing[id])
			for j := range rt {
				switch r := rng.Intn(14); {
				case j == int(id) || r >= 6:
				case r == 0: // strand: no route
					rt[j] = RouteEntry{}
				case r == 1: // a next hop anywhere, itself included: may loop
					rt[j].Path = graph.Path{id, graph.NodeID(rng.Intn(n)), graph.NodeID(j)}
				case r == 2: // a next hop outside [0, n): strands
					rt[j].Path = graph.Path{id, outside(), graph.NodeID(j)}
				case r == 3: // the true next hop, then a transit node outside
					// [0, n): delivers, and the declared-cost scheme pays it
					rt[j].Path = graph.Path{id, rt[j].Path[1], outside(), graph.NodeID(j)}
				case r == 4: // priced entries outside the range and at zero price
					if pt[j] == nil {
						pt[j] = make(map[graph.NodeID]PriceEntry)
					}
					pt[j][outside()] = PriceEntry{Price: graph.Cost(rng.Intn(3))}
					pt[j][graph.NodeID(rng.Intn(n))] = PriceEntry{}
				default: // a path that does not start at its owner
					rt[j].Path = graph.Path{graph.NodeID(j), id}
				}
			}
			routing[id], pricing[id] = rt, pt
		}
		if seed%3 == 2 { // the last node has no table
			delete(routing, graph.NodeID(n-1))
		}
		traffic := AllToAllTraffic(n, 1)
		for _, flow := range traffic.Flows() {
			traffic[flow] = rng.Int63n(7) - 1
		}
		traffic[[2]graph.NodeID{0, 0}] = 5
		for _, flow := range [][2]graph.NodeID{{-1, 1}, {graph.NodeID(n), 0}, {1, graph.NodeID(n + 1)}, {2, -2}} {
			traffic[flow] = 1 + rng.Int63n(5)
		}
		deviant := graph.NodeID(rng.Intn(n))
		cfg := ExecConfig{
			TrueCosts:          sol.Costs,
			DeclaredCosts:      sol.Costs,
			Traffic:            traffic,
			DeliveryValue:      20,
			UndeliveredPenalty: 7,
			Scheme:             []PricingScheme{SchemeVCG, SchemeDeclaredCost}[seed%2],
			ReportPayment: map[graph.NodeID]func(PaymentList) PaymentList{
				deviant: func(truth PaymentList) PaymentList {
					for k := range truth {
						truth[k] /= 2
					}
					truth[(deviant+1)%graph.NodeID(n)] += 3
					truth[graph.NodeID(n+5)] += 2
					return truth
				},
			},
		}
		want := executeInFlowOrder(routing, pricing, cfg)
		if want.Delivered == 0 || want.Undelivered == 0 {
			t.Fatalf("seed %d: delivered %d, undelivered %d: want both kinds of flow", seed, want.Delivered, want.Undelivered)
		}
		for run := 0; run < 4; run++ {
			got, err := Execute(routing, pricing, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d run %d: %s", seed, run, execDiff(got, want))
			}
		}
	}

	g, err := graph.PreferentialAttachment(100, 2, graph.UniformCost(10), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ComputeCentral(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []PricingScheme{SchemeVCG, SchemeDeclaredCost} {
		cfg := ExecConfig{
			TrueCosts:          sol.Costs,
			DeclaredCosts:      sol.Costs,
			Traffic:            AllToAllTraffic(100, 2),
			DeliveryValue:      20,
			UndeliveredPenalty: 7,
			Scheme:             scheme,
		}
		want := executeInFlowOrder(sol.Routing, sol.Pricing, cfg)
		if want.Delivered != 2*100*99 {
			t.Fatalf("prefattach n=100 %v: delivered %d of %d packets", scheme, want.Delivered, 2*100*99)
		}
		got, err := Execute(sol.Routing, sol.Pricing, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("prefattach n=100 %v: %s", scheme, execDiff(got, want))
		}
	}
}

// TestExecuteRoutingKeyOutOfRange checks that a routing table keyed
// outside [0, len(routing)) is an error rather than an index out of
// range.
func TestExecuteRoutingKeyOutOfRange(t *testing.T) {
	cfg := ExecConfig{TrueCosts: CostTable{0: 1, 1: 1}, Traffic: Traffic{{0, 1}: 1}}
	for _, key := range []graph.NodeID{-1, 2, 7} {
		routing := map[graph.NodeID]RoutingTable{0: nil, key: nil}
		if _, err := Execute(routing, nil, cfg); err == nil {
			t.Errorf("routing keys {0, %d}: no error", key)
		}
	}
	if _, err := Execute(map[graph.NodeID]RoutingTable{0: nil, 1: nil}, nil, cfg); err != nil {
		t.Errorf("routing keys {0, 1}: %v", err)
	}
}

// TestExecuteInventedPayeeIsNoPayer checks that a report paying a node
// outside TrueCosts credits it in Utilities but gives it no Reported
// entry, identically on every run. Settlement once ranged Utilities
// while crediting payees, so whether such a payee also settled as a
// payer was up to the map's iteration order.
func TestExecuteInventedPayeeIsNoPayer(t *testing.T) {
	sol, err := ComputeCentral(graph.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	const invented = graph.NodeID(1000)
	cfg := ExecConfig{
		TrueCosts:          sol.Costs,
		DeclaredCosts:      sol.Costs,
		Traffic:            AllToAllTraffic(len(sol.Routing), 1),
		DeliveryValue:      100,
		UndeliveredPenalty: 100,
		ReportPayment: map[graph.NodeID]func(PaymentList) PaymentList{
			0: func(truth PaymentList) PaymentList {
				truth[invented] += 5
				return truth
			},
		},
	}
	var first *ExecResult
	for run := 0; run < 100; run++ {
		got, err := Execute(sol.Routing, sol.Pricing, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := got.Reported[invented]; ok {
			t.Fatalf("run %d: invented payee %d has a Reported entry", run, invented)
		}
		if got.Utilities[invented] != 5 {
			t.Fatalf("run %d: invented payee credited %d, want 5", run, got.Utilities[invented])
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: %s", run, execDiff(got, first))
		}
	}
}

// FuzzExecute checks Execute against executeInFlowOrder on tables
// read from the input: up to 12 nodes whose routing slots are absent,
// direct, detoured or deviant, with next hops in [−2, n+2), tables of
// length n−1 to n+2, sometimes no table for the last node, and pricing
// rows with arbitrary transit keys and zero prices. Traffic has
// endpoints in [−1, n+1) and packets in [−1, 6], and hooks halve
// payments, drop them or invent payees. Both schemes run, each three
// times, and every run must equal the reference.
func FuzzExecute(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(mod int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % mod
			data = data[1:]
			return v
		}
		id := func(lo, hi int) graph.NodeID { return graph.NodeID(lo + next(hi-lo)) }
		n := 1 + next(12)
		routing := make(map[graph.NodeID]RoutingTable, n)
		pricing := make(map[graph.NodeID]PricingTable, n)
		for i := range n {
			owner := graph.NodeID(i)
			rt := make(RoutingTable, n-1+next(4))
			for j := range rt {
				dst := graph.NodeID(j)
				switch next(6) {
				case 0: // absent
				case 1:
					rt[j] = RouteEntry{Path: graph.Path{owner, dst}}
				case 2, 3:
					rt[j] = RouteEntry{Path: graph.Path{owner, id(-2, n+2), dst}}
				case 4:
					rt[j] = RouteEntry{Path: graph.Path{owner, id(-2, n+2), id(-2, n+2), dst}}
				default: // not the owner's path
					rt[j] = RouteEntry{Path: graph.Path{id(-2, n+2), dst}}
				}
			}
			pt := make(PricingTable, n)
			for j := range pt {
				if next(3) == 0 {
					continue
				}
				row := make(map[graph.NodeID]PriceEntry)
				for range next(4) {
					row[id(-2, n+2)] = PriceEntry{Price: graph.Cost(next(3))}
				}
				pt[j] = row
			}
			routing[owner], pricing[owner] = rt, pt
		}
		if n > 1 && next(4) == 0 {
			delete(routing, graph.NodeID(n-1))
		}
		costs, declared := make(CostTable), make(CostTable)
		for i := -1; i <= n; i++ {
			if next(4) != 0 {
				costs[graph.NodeID(i)] = graph.Cost(next(4))
			}
			if next(4) != 0 {
				declared[graph.NodeID(i)] = graph.Cost(next(4))
			}
		}
		traffic := make(Traffic)
		for range next(3 * n * n) {
			traffic[[2]graph.NodeID{id(-1, n+1), id(-1, n+1)}] = int64(next(8) - 1)
		}
		hooks := make(map[graph.NodeID]func(PaymentList) PaymentList)
		for range next(3) {
			payee, mode := id(-2, n+3), next(3)
			hooks[id(-1, n+1)] = func(truth PaymentList) PaymentList {
				switch mode {
				case 0:
					for k := range truth {
						truth[k] /= 2
					}
					return truth
				case 1:
					return nil
				default:
					delete(truth, payee)
					truth[payee+graph.NodeID(n)] += 2
					return truth
				}
			}
		}
		for _, scheme := range []PricingScheme{SchemeVCG, SchemeDeclaredCost} {
			cfg := ExecConfig{
				TrueCosts:          costs,
				DeclaredCosts:      declared,
				Traffic:            traffic,
				DeliveryValue:      5,
				UndeliveredPenalty: 3,
				Scheme:             scheme,
				ReportPayment:      hooks,
			}
			want := executeInFlowOrder(routing, pricing, cfg)
			for run := range 3 {
				got, err := Execute(routing, pricing, cfg)
				if err != nil {
					t.Fatalf("%v run %d: %v", scheme, run, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v run %d: %s", scheme, run, execDiff(got, want))
				}
			}
		}
	})
}

// execDiff names the first field in which two results differ.
func execDiff(got, want *ExecResult) string {
	switch {
	case got.Delivered != want.Delivered || got.Undelivered != want.Undelivered:
		return fmt.Sprintf("delivered/undelivered %d/%d, want %d/%d", got.Delivered, got.Undelivered, want.Delivered, want.Undelivered)
	case !reflect.DeepEqual(got.Utilities, want.Utilities):
		return fmt.Sprintf("utilities %v, want %v", got.Utilities, want.Utilities)
	case !reflect.DeepEqual(got.Obligations, want.Obligations):
		return fmt.Sprintf("obligations %v, want %v", got.Obligations, want.Obligations)
	default:
		return fmt.Sprintf("reported %v, want %v", got.Reported, want.Reported)
	}
}
