package fpss

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Traffic is the demand matrix: (src, dst) → packets.
type Traffic map[[2]graph.NodeID]int64

// Flows returns the demands in deterministic order.
func (t Traffic) Flows() [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b [2]graph.NodeID) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return out
}

// PricingScheme selects how sources compensate transit nodes.
type PricingScheme int

const (
	// SchemeVCG pays the FPSS VCG price from the source's DATA3*
	// (strategyproof; the mechanism under study).
	SchemeVCG PricingScheme = iota + 1
	// SchemeDeclaredCost pays each transit node its declared cost —
	// the naive baseline FPSS §1 warns about ("under many pricing
	// schemes, a node could be better off lying about its costs");
	// Example 1 / experiment E2 quantifies the manipulation it admits.
	SchemeDeclaredCost
)

// ExecConfig parameterizes execution-phase accounting.
type ExecConfig struct {
	// TrueCosts are the real per-packet transit costs (utilities are
	// evaluated at true types).
	TrueCosts CostTable
	// DeclaredCosts are the DATA1 declared costs (used by
	// SchemeDeclaredCost and for reference).
	DeclaredCosts CostTable
	// Traffic is the demand matrix.
	Traffic Traffic
	// DeliveryValue is the source's per-packet value for delivery.
	DeliveryValue int64
	// UndeliveredPenalty is the source's per-packet loss when a packet
	// cannot be routed (missing or looping tables).
	UndeliveredPenalty int64
	// Scheme selects the pricing rule (default SchemeVCG).
	Scheme PricingScheme
	// ReportPayment lets a node misreport its DATA4 payment list to
	// the accounting mechanism (execution-phase deviation; the
	// original FPSS trusts the report). nil entries are truthful.
	ReportPayment map[graph.NodeID]func(truth PaymentList) PaymentList
}

// ExecResult is the outcome of the execution phase under the original
// (trusting) FPSS accounting. Every figure is an int64 sum over the
// flows, so it does not depend on the order the flows are taken in.
type ExecResult struct {
	// Utilities is each node's quasilinear utility: delivery value
	// − payments made − true transit costs + payments received.
	Utilities map[graph.NodeID]int64
	// Obligations is each source's truthful DATA4 (what it owes).
	Obligations map[graph.NodeID]PaymentList
	// Reported is each source's reported DATA4 (possibly a lie).
	Reported map[graph.NodeID]PaymentList
	// Delivered / Undelivered count packets.
	Delivered, Undelivered int64
}

// Execute performs execution-phase accounting over converged (possibly
// manipulated) tables. Packets are forwarded hop-by-hop using each
// hop's own routing table, so inconsistent tables can strand packets —
// the efficiency damage Example 1 describes. Flows are summed straight
// from the Traffic map: the accounting is an order-free sum, and the
// realized path of each flow lives only until the next one is routed.
func Execute(routing map[graph.NodeID]RoutingTable, pricing map[graph.NodeID]PricingTable, cfg ExecConfig) (*ExecResult, error) {
	if cfg.TrueCosts == nil {
		return nil, errors.New("fpss: ExecConfig.TrueCosts required")
	}
	scheme := cfg.Scheme
	if scheme == 0 {
		scheme = SchemeVCG
	}
	res := &ExecResult{
		Utilities:   make(map[graph.NodeID]int64, len(routing)),
		Obligations: make(map[graph.NodeID]PaymentList),
		Reported:    make(map[graph.NodeID]PaymentList),
	}
	for id := range cfg.TrueCosts {
		res.Utilities[id] = 0
	}

	var route graph.Path // reused from flow to flow
	for flow, packets := range cfg.Traffic {
		src, dst := flow[0], flow[1]
		if packets <= 0 || src == dst {
			continue
		}
		var ok bool
		route, ok = forward(route[:0], routing, src, dst)
		if !ok {
			res.Undelivered += packets
			res.Utilities[src] -= cfg.UndeliveredPenalty * packets
			continue
		}
		res.Delivered += packets
		res.Utilities[src] += cfg.DeliveryValue * packets
		// Real transit costs accrue on the realized route, src and dst
		// excluded.
		for _, k := range route[1 : len(route)-1] {
			res.Utilities[k] -= int64(cfg.TrueCosts[k]) * packets
		}
		// The source's obligation comes from its own tables (its
		// believed LCP), as in FPSS DATA4.
		obligation := res.Obligations[src]
		if obligation == nil {
			obligation = make(PaymentList)
			res.Obligations[src] = obligation
		}
		AddObligation(obligation, routing[src], pricing[src], dst, packets, scheme, cfg.DeclaredCosts)
	}

	// Reporting and settlement: the original FPSS accounting trusts
	// each source's reported DATA4.
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
	return res, nil
}

// forward routes hop-by-hop using each hop's routing table. It appends
// the realized path to path, returning it and whether dst was reached
// within a TTL.
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

// AddObligation adds to list a source's truthful payments for one
// flow of packets to dst, computed from its own (believed) DATA2 rt
// and DATA3* pt: VCG pays the priced transit nodes, the declared-cost
// scheme pays each transit node on the route its DATA1 declaration.
// A source without a route to dst owes nothing.
func AddObligation(list PaymentList, rt RoutingTable, pt PricingTable, dst graph.NodeID, packets int64, scheme PricingScheme, declared CostTable) {
	e, ok := rt.Get(dst)
	if !ok {
		return
	}
	switch scheme {
	case SchemeDeclaredCost:
		for _, k := range e.Path.TransitNodes() {
			list[k] += int64(declared[k]) * packets
		}
	default: // SchemeVCG
		for k, pe := range pt.Row(dst) {
			list[k] += int64(pe.Price) * packets
		}
	}
}

// AllToAllTraffic builds a uniform demand matrix: every ordered pair
// exchanges `packets` packets.
func AllToAllTraffic(n int, packets int64) Traffic {
	t := make(Traffic, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				t[[2]graph.NodeID{graph.NodeID(i), graph.NodeID(j)}] = packets
			}
		}
	}
	return t
}

// String implements fmt.Stringer for schemes.
func (s PricingScheme) String() string {
	switch s {
	case SchemeVCG:
		return "vcg"
	case SchemeDeclaredCost:
		return "declared-cost"
	default:
		return fmt.Sprintf("PricingScheme(%d)", int(s))
	}
}
