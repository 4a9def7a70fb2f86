package fpss

import (
	"slices"

	"repro/internal/graph"
)

// NeighborView is what a node has most recently heard from one
// neighbor: the neighbor's full routing and pricing tables. (FPSS
// sends incremental updates; full-table exchange converges to the
// same fixpoint and keeps the checker mirrors simple.)
type NeighborView struct {
	Routing RoutingTable
	Pricing PricingTable
}

// Same reports whether v and o hold the same tables by identity: the
// same backing arrays and lengths. Published tables are never edited,
// so the same tables are equal ones.
func (v NeighborView) Same(o NeighborView) bool {
	return sameSlice(v.Routing, o.Routing) && sameSlice(v.Pricing, o.Pricing)
}

// sameSlice reports whether a and b are one slice: the same length
// and, unless empty, the same backing array.
func sameSlice[S ~[]E, E any](a, b S) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ComputeTables recomputes DATA2 and DATA3* for `self` from DATA1
// (declared costs) and the latest neighbor views: views holds one view
// per neighbor, views[i] being neighbors[i]'s (a zero view for one not
// heard from). Routing is one Bellman relaxation over all destinations:
//
//	d(self→j) = min over neighbors v:  v == j ? 0 : ĉ_v + d(v→j)
//
// with the composite (cost, hops, lex) tie-break, over the neighbors
// whose route to j does not pass through self. Repeated application
// as views refresh converges to the centralized solution: values start
// at infinity and only decrease (static network, non-negative costs).
// Pricing follows over the routing just computed (see computePricing).
//
// The function is pure — checker nodes verify a principal's
// computation against it on mirrored inputs ([CHECK1]/[CHECK2]; see
// VerifyTables) — and it is the specification that a Derivation's
// per-destination updates must match.
// It draws its entry paths, witness paths, tag sets and working set
// from s; see ComputeScratch for the ownership rules.
func ComputeTables(s *ComputeScratch, self graph.NodeID, neighbors []graph.NodeID, costs CostTable, views []NeighborView) (RoutingTable, PricingTable) {
	s.costs = denseCosts(s.costs, costs)
	routing := s.computeRouting(self, neighbors, s.costs, views)
	return routing, s.computePricing(self, neighbors, s.costs, routing, views)
}

// VerifyTables reports whether ComputeTables over the same inputs
// would return tables Equal to routing and pricing, a principal's
// advertisement. It runs ComputeTables' per-destination kernels and
// compares each result with the advertised entry and row, as Derive
// does, so it materializes nothing: a checker whose principal computed
// faithfully needs no tables of its own. It stops at the first
// difference, and uses s's working set only.
func VerifyTables(s *ComputeScratch, self graph.NodeID, neighbors []graph.NodeID, costs CostTable, views []NeighborView, routing RoutingTable, pricing PricingTable) bool {
	s.costs = denseCosts(s.costs, costs)
	n := tableLen(s.costs, neighbors, views)
	for j := range max(n, len(routing), len(pricing)) {
		dst := graph.NodeID(j)
		route, has := routing.Get(dst)
		row := pricing.Row(dst)
		if j >= n || dst == self {
			// ComputeTables has no slot past n, and never fills self's.
			if has || row != nil {
				return false
			}
			continue
		}
		cost, base, ok := s.routeTo(self, dst, neighbors, s.costs, views)
		if ok != has || ok && (route.Cost != cost || !prefixedBy(route.Path, self, base)) {
			return false
		}
		// The advertised route equals the computed one, or both are
		// absent, so it prices the row as ComputeTables' own would.
		// rowMatches accepts an empty row for no cells; ComputeTables
		// leaves the row nil.
		cells := s.priceRow(self, dst, route, neighbors, s.costs, views)
		if (row == nil) != (len(cells) == 0) || !rowMatches(row, self, cells) {
			return false
		}
	}
	return true
}

// computeRouting is ComputeTables' routing over the kernels' inputs:
// DATA1 indexed by NodeID and views aligned with neighbors. The table
// has tableLen slots; every one but self's is tried.
func (s *ComputeScratch) computeRouting(self graph.NodeID, neighbors []graph.NodeID, costs []costSlot, views []NeighborView) RoutingTable {
	out := make(RoutingTable, tableLen(costs, neighbors, views))
	for j := range out {
		dst := graph.NodeID(j)
		if dst == self {
			continue
		}
		if cost, base, ok := s.routeTo(self, dst, neighbors, costs, views); ok {
			out[j] = RouteEntry{Cost: cost, Path: s.prepend(self, base)}
		}
	}
	return out
}

// costSlot is one DATA1 entry in the dense copy the kernels read.
type costSlot struct {
	cost  graph.Cost
	known bool
}

// denseCosts copies DATA1 into buf's storage, indexed by NodeID.
func denseCosts(buf []costSlot, costs CostTable) []costSlot {
	n := 0
	for id := range costs {
		n = max(n, int(id)+1)
	}
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	for id, c := range costs {
		buf[id] = costSlot{cost: c, known: true}
	}
	return buf
}

// costOf returns v's declared cost and whether DATA1 knows it.
func costOf(costs []costSlot, v graph.NodeID) (graph.Cost, bool) {
	if uint(v) < uint(len(costs)) {
		return costs[v].cost, costs[v].known
	}
	return 0, false
}

// tableLen is the length of a principal's tables: one slot for every
// node that DATA1, the neighbor list or a neighbor's routing table
// names. Once phase 1 has run its course, that is the node count.
func tableLen(costs []costSlot, neighbors []graph.NodeID, views []NeighborView) int {
	n := len(costs)
	for i, v := range neighbors {
		n = max(n, int(v)+1, len(views[i].Routing))
	}
	return n
}

// routeTo is computeRouting's kernel for one destination j ≠ self: the
// best route's cost and its base path (without the self prefix; see
// betterBase), or ok=false when no neighbor offers a route yet. The
// base is a read-only view of a neighbor's table or of s, valid until
// the next kernel call on s; prepend materializes it.
//
// As in any path vector, a neighbor's route that already passes
// through self is a loop and is never taken. The membership test runs
// only for a candidate that would win, so an honest run, where no
// winner loops, pays one scan per improvement rather than per
// candidate.
func (s *ComputeScratch) routeTo(self, j graph.NodeID, neighbors []graph.NodeID, costs []costSlot, views []NeighborView) (graph.Cost, graph.Path, bool) {
	var (
		bestCost graph.Cost
		bestBase graph.Path
		found    bool
	)
	s.direct[0] = j
	for i, v := range neighbors {
		var (
			candCost graph.Cost
			candBase graph.Path
		)
		if v == j {
			candCost, candBase = 0, s.direct[:]
		} else {
			e, ok := views[i].Routing.Get(j)
			if !ok {
				continue
			}
			vc, ok := costOf(costs, v)
			if !ok {
				continue // v's declared cost not yet known (phase 1 incomplete)
			}
			candCost, candBase = vc+e.Cost, e.Path
		}
		if (!found || betterBase(candCost, candBase, bestCost, bestBase)) && !candBase.Contains(self) {
			bestCost, bestBase, found = candCost, candBase, true
		}
	}
	return bestCost, bestBase, found
}

// betterBase reports whether candidate (c1, base1) beats (c2, base2)
// under the composite route order, where each full path is the shared
// prefix `self` plus the base path. Because both candidates carry the
// same one-node prefix, comparing (cost, len(base), base-lex) is
// exactly the (cost, hops, lex) order on the materialized paths — which
// lets the relaxation loops compare every candidate without allocating
// and materialize only the winner (see prepend).
func betterBase(c1 graph.Cost, base1 graph.Path, c2 graph.Cost, base2 graph.Path) bool {
	if c1 != c2 {
		return c1 < c2
	}
	if len(base1) != len(base2) {
		return len(base1) < len(base2)
	}
	return base1.Less(base2)
}

// prefixedBy reports whether p is exactly self followed by base.
func prefixedBy(p graph.Path, self graph.NodeID, base graph.Path) bool {
	return len(p) == len(base)+1 && p[0] == self && p[1:].Equal(base)
}

// computePricing recomputes DATA3* for `self` over routing and the
// kernels' inputs (see computeRouting): for every destination j in the
// routing table and every transit node k on LCP(self→j), the avoid-k
// value
//
//	B^k(self→j) = min over neighbors v ≠ k of
//	    0                          if v == j
//	    ĉ_v + B^k(v→j)             if k ∈ LCP(v→j)   (from v's pricing entry)
//	    ĉ_v + d(v→j)               otherwise          (v's own LCP already avoids k)
//
// and the FPSS VCG price p^k = ĉ_k + B^k − d(self→j). The witness path
// is carried for determinism and checker verification; Tags is the
// union of the neighbors attaining the minimal cost — the identity-tag
// field of DATA3* ("the node that triggered the most recent pricing
// table update", union on ties) that [BANK2] compares. A candidate
// whose witness passes through self is a loop, as in routeTo: it
// neither wins nor counts toward the tags. The table is as long as
// routing.
func (s *ComputeScratch) computePricing(self graph.NodeID, neighbors []graph.NodeID, costs []costSlot, routing RoutingTable, views []NeighborView) PricingTable {
	out := make(PricingTable, len(routing))
	for j, route := range routing {
		if route.Path == nil {
			continue
		}
		if cells := s.priceRow(self, graph.NodeID(j), route, neighbors, costs, views); len(cells) > 0 {
			out[j] = s.materializeRow(self, cells)
		}
	}
	return out
}

// priceCell is one DATA3* entry before materialization: the winning
// avoid-k base path (a read-only view, as in routeTo) and the sorted
// tag set, which lives in the scratch.
type priceCell struct {
	k     graph.NodeID
	price graph.Cost
	base  graph.Path
	tags  []graph.NodeID
}

// priceRow is computePricing's kernel for one destination j reached by
// route: one cell per transit node of the route that has a price yet.
// The cells live in s until the next kernel call; an empty result
// means j has no pricing row.
func (s *ComputeScratch) priceRow(self, j graph.NodeID, route RouteEntry, neighbors []graph.NodeID, costs []costSlot, views []NeighborView) []priceCell {
	s.cells, s.tags = s.cells[:0], s.tags[:0]
	if len(route.Path) <= 2 {
		return nil // no transit node
	}
	s.direct[0] = j
	// seen marks the transits already tried. Only a transit with a
	// known cost gets past costOf, so len(costs) bits cover them.
	words := (len(costs) + 63) / 64
	seen := slices.Grow(s.seen[:0], words)[:words]
	clear(seen)
	s.seen = seen
	for _, k := range route.Path[1 : len(route.Path)-1] {
		kc, ok := costOf(costs, k)
		if !ok || seen[k/64]&(1<<(k%64)) != 0 {
			// A route can repeat a transit node: a deviant's own, or
			// one built on a deviant's path that repeats a node other
			// than self. Its second try would give what its first
			// gave, and a row holds a cell once.
			continue
		}
		seen[k/64] |= 1 << (k % 64)
		var (
			bestCost graph.Cost
			bestBase graph.Path
			found    bool
		)
		// contribs records the contributions that could still tie the
		// minimum, so the identity-tag pass reuses the relaxation
		// loop's values.
		contribs := s.contribs[:0]
		for i, v := range neighbors {
			if v == k {
				continue
			}
			var (
				contribution graph.Cost
				base         graph.Path
				ok           bool
			)
			if v == j {
				contribution, base, ok = 0, s.direct[:], true
			} else {
				contribution, base, ok = neighborAvoidValue(v, j, k, costs, views[i])
			}
			if !ok || found && contribution > bestCost {
				// Unavailable, or costlier than a candidate already
				// found, so it can neither win nor tie: skip it before
				// the loop test.
				continue
			}
			if base.Contains(self) {
				continue // a loop through self
			}
			contribs = append(contribs, contrib{v: v, cost: contribution})
			if !found || betterBase(contribution, base, bestCost, bestBase) {
				bestCost, bestBase, found = contribution, base, true
			}
		}
		s.contribs = contribs
		if !found {
			continue // no avoid-k information yet; a later update fills it
		}
		// Tags: the sorted union of neighbors whose contribution equals
		// the chosen minimum. Earlier cells keep their tags even if this
		// append moves s.tags: they alias the old backing array.
		start := len(s.tags)
		for _, c := range contribs {
			if c.cost == bestCost {
				s.tags = append(s.tags, c.v)
			}
		}
		tags := s.tags[start:]
		slices.Sort(tags)
		s.cells = append(s.cells, priceCell{k: k, price: kc + bestCost - route.Cost, base: bestBase, tags: tags})
	}
	return s.cells
}

// materializeRow copies cells into a fresh pricing row (see newRow)
// whose witness paths and tag sets are carved from the arena.
func (s *ComputeScratch) materializeRow(self graph.NodeID, cells []priceCell) map[graph.NodeID]PriceEntry {
	row := s.newRow(len(cells))
	for _, c := range cells {
		row[c.k] = PriceEntry{Transit: c.k, Price: c.price, Avoid: s.prepend(self, c.base), Tags: s.copyIDs(c.tags)}
	}
	return row
}

// rowMatches reports whether row is exactly what materializeRow would
// build from cells (a nil row matches no cells).
func rowMatches(row map[graph.NodeID]PriceEntry, self graph.NodeID, cells []priceCell) bool {
	if len(row) != len(cells) {
		return false
	}
	for _, c := range cells {
		e, ok := row[c.k]
		if !ok || e.Transit != c.k || e.Price != c.price || !prefixedBy(e.Avoid, self, c.base) || !slices.Equal(e.Tags, c.tags) {
			return false
		}
	}
	return true
}

// neighborAvoidValue returns v's best avoid-k continuation toward j
// from v's view: the contribution cost, the *base* witness path (a
// read-only view of v's tables, without the self prefix — see
// betterBase/prepend) and whether the value is available yet.
func neighborAvoidValue(v, j, k graph.NodeID, costs []costSlot, view NeighborView) (graph.Cost, graph.Path, bool) {
	vc, ok := costOf(costs, v)
	if !ok {
		return 0, nil, false
	}
	e, ok := view.Routing.Get(j)
	if !ok {
		return 0, nil, false
	}
	if !e.Path.Contains(k) {
		// v's own LCP avoids k: d(v→j) is an avoid-k value.
		return vc + e.Cost, e.Path, true
	}
	pe, ok := view.Pricing.Row(j)[k]
	if !ok {
		return 0, nil, false
	}
	// Recover B^k(v→j) from v's price: p = ĉ_k + B − d  ⇒  B = p − ĉ_k + d.
	kc, ok := costOf(costs, k)
	if !ok {
		return 0, nil, false
	}
	b := pe.Price - kc + e.Cost
	return vc + b, pe.Avoid, true
}

// contrib is one neighbor's avoid-k contribution cost for the current
// (destination, transit) pair.
type contrib struct {
	v    graph.NodeID
	cost graph.Cost
}
