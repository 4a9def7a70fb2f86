package fpss

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// executeInFlowOrder is the reference for Execute: the same accounting,
// with the flows taken in Traffic.Flows() order and a fresh path per
// flow.
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
	for id := range res.Utilities {
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

// TestExecuteFlowOrderFree checks that Execute, which sums flows in map
// order, equals the reference that takes them in sorted order, on
// seeded deviant tables: routes whose next hops loop or point nowhere,
// absent routes that strand flows, zero, negative and self flows, and
// DATA4 misreports. Repeated runs, each in a fresh map order, must all
// agree.
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
		// Draw in node and flow order, so each seed's tables are fixed.
		routing := make(map[graph.NodeID]RoutingTable, n)
		for i := 0; i < n; i++ {
			id := graph.NodeID(i)
			rt := sol.Routing[id].Clone()
			for j := range rt {
				switch r := rng.Intn(10); {
				case j == int(id) || r >= 3:
				case r == 0: // strand: no route
					rt[j] = RouteEntry{}
				case r == 1: // a next hop anywhere, itself included: may loop
					rt[j].Path = graph.Path{id, graph.NodeID(rng.Intn(n)), graph.NodeID(j)}
				default: // a path that does not start at its owner
					rt[j].Path = graph.Path{graph.NodeID(j), id}
				}
			}
			routing[id] = rt
		}
		traffic := AllToAllTraffic(n, 1)
		for _, flow := range traffic.Flows() {
			traffic[flow] = rng.Int63n(7) - 1
		}
		traffic[[2]graph.NodeID{0, 0}] = 5
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
					return truth
				},
			},
		}
		want := executeInFlowOrder(routing, sol.Pricing, cfg)
		if want.Delivered == 0 || want.Undelivered == 0 {
			t.Fatalf("seed %d: delivered %d, undelivered %d: want both kinds of flow", seed, want.Delivered, want.Undelivered)
		}
		for run := 0; run < 4; run++ {
			got, err := Execute(routing, sol.Pricing, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d run %d: %s", seed, run, execDiff(got, want))
			}
		}
	}
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
