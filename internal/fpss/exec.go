package fpss

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
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
	// Obligations is each source's truthful DATA4 (what it owes), for
	// every source with a delivered flow.
	Obligations map[graph.NodeID]PaymentList
	// Reported is each payer's reported DATA4 (possibly a lie). The
	// payers are the nodes in Utilities before settlement: those in
	// TrueCosts, the sources of counted flows and the transit nodes.
	// A payee that only a report names is credited in Utilities but
	// is no payer, so it has no entry here. A truthful entry is the
	// payer's Obligations map itself, and payers that owe nothing share
	// one empty map, so every entry is read-only.
	Reported map[graph.NodeID]PaymentList
	// Delivered / Undelivered count packets.
	Delivered, Undelivered int64
}

// Execute performs execution-phase accounting over converged (possibly
// manipulated) tables. Packets are forwarded hop-by-hop using each
// hop's own routing table, so inconsistent tables can strand packets —
// the efficiency damage Example 1 describes.
//
// The accounting runs over dense state built once per call. Routing
// tables are indexed by NodeID, so every key of routing must lie in
// [0, len(routing)); any other key is an error. Any other ID outside
// that range behaves as a node without a table: a flow from it, or
// through it as a next hop, strands, and a payment to it is summed in
// the maps. Flows are bucketed by source with a counting pass, and each
// source's bucket is one job on a pool (see par.Run): its tables are
// read once, and its DATA4 is summed in its worker's dense accumulator
// and built once, at its exact size. A worker owns the per-node marks
// it writes (packets carried in transit, the DATA4 accumulator); the
// tables and buckets are shared and read-only. A merge in node order
// then fills Utilities, Obligations and the transit charges from the
// workers' marks. Every figure is an int64 sum, so neither the flow
// order nor the worker count changes a result.
//
// Settlement then charges each payer its reported DATA4 and credits
// the payees, where the payers are fixed before it starts (see
// ExecResult.Reported).
func Execute(routing map[graph.NodeID]RoutingTable, pricing map[graph.NodeID]PricingTable, cfg ExecConfig) (*ExecResult, error) {
	if cfg.TrueCosts == nil {
		return nil, errors.New("fpss: ExecConfig.TrueCosts required")
	}
	scheme := cfg.Scheme
	if scheme == 0 {
		scheme = SchemeVCG
	}
	n := len(routing)
	nodes := make([]execNode, n)
	for id, rt := range routing {
		if uint(id) >= uint(n) {
			return nil, fmt.Errorf("fpss: routing table key %d outside [0, %d)", id, n)
		}
		nodes[id].rt = rt
	}
	res := &ExecResult{Utilities: make(map[graph.NodeID]int64, n)}
	for id := range cfg.TrueCosts {
		res.Utilities[id] = 0
	}

	// Bucket the counted flows by source: count each source's flows,
	// turn the counts into bucket ends, then place every flow. A
	// source without a table strands its flows at once.
	counted := 0
	for flow, packets := range cfg.Traffic {
		src, dst := flow[0], flow[1]
		if packets <= 0 || src == dst {
			continue
		}
		if uint(src) >= uint(n) {
			res.Undelivered += packets
			res.Utilities[src] -= cfg.UndeliveredPenalty * packets
			continue
		}
		nodes[src].end++
		counted++
	}
	sources, at := 0, 0
	for i := range nodes {
		c := nodes[i].end
		nodes[i].end = at
		at += c
		if c > 0 {
			sources++
		}
	}
	flows := make([]execFlow, counted)
	for flow, packets := range cfg.Traffic {
		src := flow[0]
		if packets <= 0 || src == flow[1] || uint(src) >= uint(n) {
			continue
		}
		flows[nodes[src].end] = execFlow{dst: flow[1], packets: packets}
		nodes[src].end++
	}

	// Account each source's bucket on the pool. Worker 0 marks the
	// shared nodes and every other worker a copy of its own, so no
	// worker writes a node that another reads.
	workers := newPool[execWorker](sources)
	for k := range workers {
		w := &workers[k]
		w.nodes, w.flows, w.pricing = nodes, flows, pricing
		w.declared, w.scheme = cfg.DeclaredCosts, scheme
		w.value, w.penalty = cfg.DeliveryValue, cfg.UndeliveredPenalty
		if k > 0 {
			w.nodes = slices.Clone(nodes)
		}
	}
	_ = par.Run(workers, n, (*execWorker).account) // accounting cannot fail

	// Merge in node order: each source's utility and DATA4, and each
	// transit node's true cost once per packet carried, summed over
	// the workers.
	res.Obligations = make(map[graph.NodeID]PaymentList, sources)
	begin := 0
	for i := range nodes {
		id := graph.NodeID(i)
		var du, carried int64
		transit := false
		for k := range workers {
			node := &workers[k].nodes[i]
			du += node.du
			carried += node.carried
			transit = transit || node.transit
			if node.data4 != nil {
				res.Obligations[id] = node.data4
			}
		}
		if nodes[i].end > begin {
			res.Utilities[id] += du
		}
		begin = nodes[i].end
		if transit {
			res.Utilities[id] -= int64(cfg.TrueCosts[id]) * carried
		}
	}
	for k := range workers {
		res.Delivered += workers[k].delivered
		res.Undelivered += workers[k].undelivered
	}

	// Reporting and settlement: the original FPSS accounting trusts
	// each source's reported DATA4. Every report is taken before any
	// is settled, so the payers are the nodes in Utilities now, and a
	// payee a report invents is credited but pays nothing. A truthful
	// report is the obligation map itself, and payers that owe nothing
	// share one empty map, made when the first needs it; only a hook
	// gets a copy of its own to edit.
	res.Reported = make(map[graph.NodeID]PaymentList, len(res.Utilities))
	var none PaymentList
	for id := range res.Utilities {
		reported, ok := res.Obligations[id]
		if hook := cfg.ReportPayment[id]; hook != nil {
			reported = hook(reported.Clone())
		} else if !ok {
			if none == nil {
				none = PaymentList{}
			}
			reported = none
		}
		res.Reported[id] = reported
	}
	for id, reported := range res.Reported {
		res.Utilities[id] -= reported.Total()
		for k, amt := range reported {
			res.Utilities[k] += amt
		}
	}
	return res, nil
}

// execNode is the dense state of one node. rt and end are Execute's
// shared input; du and data4 are the node's results as a source, set
// by the job that accounts it; the rest are one worker's marks.
type execNode struct {
	rt RoutingTable // the node's DATA2, nil when it has none
	// end is the end of the node's bucket of flows as a source; the
	// bucket starts at the previous node's end.
	end int
	// du is the node's utility from its own flows as a source: the
	// delivery value of its delivered packets less the penalty for
	// its stranded ones. data4 is its DATA4, nil unless a flow of it
	// was delivered.
	du    int64
	data4 PaymentList
	// carried is the packets the node carried in transit, over the
	// worker's delivered flows; transit marks that it carried any.
	carried int64
	transit bool
	// owed is what the worker's current source owes the node; owes
	// marks that it owes anything, a zero price included.
	owes bool
	owed int64
	// payee is the slot's share of the worker's payee list (see
	// execWorker).
	payee graph.NodeID
}

// execFlow is one counted flow in its source's bucket.
type execFlow struct {
	dst     graph.NodeID
	packets int64
}

// execWorker is one pool worker's state for one Execute call: the
// call's shared inputs, the per-node state it marks, and the DATA4
// accumulator of the source it is accounting.
type execWorker struct {
	// nodes is the per-node state: the shared nodes for worker 0,
	// a copy of its own for every other worker.
	nodes    []execNode
	flows    []execFlow
	pricing  map[graph.NodeID]PricingTable
	declared CostTable
	scheme   PricingScheme
	value    int64 // DeliveryValue
	penalty  int64 // UndeliveredPenalty
	// payees counts the nodes the current source owes; their IDs are
	// nodes[:payees].payee, in first-owed order.
	payees int
	// beyond holds what the current source owes nodes outside the
	// range; nil until one is owed.
	beyond PaymentList
	// delivered and undelivered count the packets of the worker's
	// sources' flows.
	delivered, undelivered int64
}

// account is the job for node i as a source. It forwards the source's
// bucket of flows, marks the packets each transit node carried, and
// sums the source's obligations from its own (believed) DATA2 and
// DATA3*, as in FPSS DATA4, into nodes[i].du and nodes[i].data4.
func (w *execWorker) account(i int) error {
	begin := 0
	if i > 0 {
		begin = w.nodes[i-1].end
	}
	bucket := w.flows[begin:w.nodes[i].end]
	if len(bucket) == 0 {
		return nil
	}
	src := graph.NodeID(i)
	rt, pt := w.nodes[i].rt, w.pricing[src]
	var buf [32]graph.NodeID
	path := buf[:0] // reused from flow to flow
	var du int64
	delivered := false
	for _, f := range bucket {
		var ok bool
		path, ok = w.forward(path[:0], src, f.dst)
		if !ok {
			w.undelivered += f.packets
			du -= w.penalty * f.packets
			continue
		}
		delivered = true
		w.delivered += f.packets
		du += w.value * f.packets
		// Real transit costs accrue on the realized route, src and dst
		// excluded. Every transit node had a table to forward by, so it
		// lies in range.
		for _, k := range path[1 : len(path)-1] {
			t := &w.nodes[k]
			t.carried += f.packets
			t.transit = true
		}
		obligation(rt, pt, f.dst, f.packets, w.scheme, w.declared, w.add)
	}
	w.nodes[i].du = du
	if delivered {
		w.nodes[i].data4 = w.data4()
	}
	return nil
}

// forward routes hop-by-hop using each hop's routing table. It appends
// the realized path to path, returning it and whether dst was reached
// within a TTL. A hop outside the dense range has no table.
func (w *execWorker) forward(path graph.Path, src, dst graph.NodeID) (graph.Path, bool) {
	path = append(path, src)
	cur := src
	ttl := len(w.nodes) + 2
	for hops := 0; hops < ttl; hops++ {
		if cur == dst {
			return path, true
		}
		if uint(cur) >= uint(len(w.nodes)) {
			return path, false
		}
		e, ok := w.nodes[cur].rt.Get(dst)
		if !ok || len(e.Path) < 2 || e.Path[0] != cur {
			return path, false
		}
		cur = e.Path[1]
		path = append(path, cur)
	}
	return path, false
}

// add adds amount to what the current source owes k.
func (w *execWorker) add(k graph.NodeID, amount int64) {
	if uint(k) >= uint(len(w.nodes)) {
		if w.beyond == nil {
			w.beyond = make(PaymentList)
		}
		w.beyond[k] += amount
		return
	}
	p := &w.nodes[k]
	if !p.owes {
		p.owes = true
		w.nodes[w.payees].payee = k
		w.payees++
	}
	p.owed += amount
}

// data4 returns the current source's DATA4, built at its exact size,
// and clears the accumulator for the next source.
func (w *execWorker) data4() PaymentList {
	list := make(PaymentList, w.payees+len(w.beyond))
	for i := range w.payees {
		k := w.nodes[i].payee
		p := &w.nodes[k]
		list[k] = p.owed
		p.owes, p.owed = false, 0
	}
	w.payees = 0
	for k, amt := range w.beyond {
		list[k] = amt
	}
	clear(w.beyond)
	return list
}

// AddObligation adds to list a source's truthful payments for one
// flow of packets to dst, computed from its own (believed) DATA2 rt
// and DATA3* pt (see obligation). The live server's Pay sums one
// answer with it.
func AddObligation(list PaymentList, rt RoutingTable, pt PricingTable, dst graph.NodeID, packets int64, scheme PricingScheme, declared CostTable) {
	obligation(rt, pt, dst, packets, scheme, declared, func(k graph.NodeID, amount int64) { list[k] += amount })
}

// obligation is the one obligation rule: it passes to add a source's
// truthful payments for one flow of packets to dst, computed from its
// own (believed) DATA2 rt and DATA3* pt, one transit node at a time.
// VCG pays the priced transit nodes, the declared-cost scheme pays
// each transit node on the route its DATA1 declaration. A source
// without a route to dst owes nothing. Execute sums it into each
// source's DATA4, and AddObligation into a PaymentList.
func obligation(rt RoutingTable, pt PricingTable, dst graph.NodeID, packets int64, scheme PricingScheme, declared CostTable, add func(k graph.NodeID, amount int64)) {
	e, ok := rt.Get(dst)
	if !ok {
		return
	}
	switch scheme {
	case SchemeDeclaredCost:
		if len(e.Path) > 2 {
			for _, k := range e.Path[1 : len(e.Path)-1] {
				add(k, int64(declared[k])*packets)
			}
		}
	default: // SchemeVCG
		for k, pe := range pt.Row(dst) {
			add(k, int64(pe.Price)*packets)
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
