package fpss

import (
	"repro/internal/graph"
)

// ComputeScratch is the reusable storage behind the table-recompute
// hot path. A distributed run recomputes DATA2/DATA3* on every
// received update, and the convergence tail discards almost every
// result as "unchanged" — profiling a deviation search shows ~90% of
// all allocated objects are the per-entry witness paths and tag sets
// of those discarded tables. The scratch attacks that three ways:
//
//   - witness paths and tag sets are carved out of a chunked NodeID
//     arena (one allocation per ~4096 IDs instead of one per entry);
//     handed-out slices are never reused, so surviving tables stay
//     valid after the chunk is dropped to the GC;
//   - tables and pricing rows discarded by an unchanged-recompute are
//     cleared and recycled instead of reallocated;
//   - the small per-call helpers (destination set, contribution list)
//     are kept warm across calls.
//
// A scratch is single-owner state: one per protocol node (fpss.Node
// and faithful.Node embed one), never shared across goroutines. The
// nil *ComputeScratch is valid everywhere and falls back to plain
// allocation — ComputeRouting/ComputePricing remain pure functions.
type ComputeScratch struct {
	ids      []graph.NodeID
	dests    map[graph.NodeID]bool
	contribs []contrib
	routing  []RoutingTable
	pricing  []PricingTable
	rows     []map[graph.NodeID]PriceEntry
}

// idChunk is the arena chunk size; big enough that chunk turnover is
// noise, small enough that a retained path pins little dead memory.
const idChunk = 4096

// allocIDs reserves a zero-length slice with capacity n in the arena.
// The returned slice is exclusively the caller's: later reservations
// start past it (full-slice expression), and chunks are abandoned to
// the GC — never rewound — so entries that survive into advertised
// tables remain immutable.
func (s *ComputeScratch) allocIDs(n int) []graph.NodeID {
	if s == nil {
		return make([]graph.NodeID, 0, n)
	}
	if cap(s.ids)-len(s.ids) < n {
		c := idChunk
		if n > c {
			c = n
		}
		s.ids = make([]graph.NodeID, 0, c)
	}
	off := len(s.ids)
	s.ids = s.ids[:off+n]
	return s.ids[off : off : off+n]
}

// prepend materializes self + base as a path carved from the arena.
func (s *ComputeScratch) prepend(self graph.NodeID, base graph.Path) graph.Path {
	p := s.allocIDs(len(base) + 1)
	p = append(p, self)
	return append(p, base...)
}

// destSet returns the cleared reusable destination set.
func (s *ComputeScratch) destSet() map[graph.NodeID]bool {
	if s == nil {
		return make(map[graph.NodeID]bool)
	}
	if s.dests == nil {
		s.dests = make(map[graph.NodeID]bool)
	} else {
		clear(s.dests)
	}
	return s.dests
}

// routingTable returns a cleared recycled table, or a fresh one.
func (s *ComputeScratch) routingTable(hint int) RoutingTable {
	if s != nil {
		if k := len(s.routing); k > 0 {
			t := s.routing[k-1]
			s.routing[k-1] = nil
			s.routing = s.routing[:k-1]
			return t
		}
	}
	return make(RoutingTable, hint)
}

// pricingTable returns a cleared recycled table, or a fresh one.
func (s *ComputeScratch) pricingTable() PricingTable {
	if s != nil {
		if k := len(s.pricing); k > 0 {
			t := s.pricing[k-1]
			s.pricing[k-1] = nil
			s.pricing = s.pricing[:k-1]
			return t
		}
	}
	return make(PricingTable)
}

// row returns a cleared recycled pricing row, or a fresh one.
func (s *ComputeScratch) row(hint int) map[graph.NodeID]PriceEntry {
	if s != nil {
		if k := len(s.rows); k > 0 {
			r := s.rows[k-1]
			s.rows[k-1] = nil
			s.rows = s.rows[:k-1]
			return r
		}
	}
	return make(map[graph.NodeID]PriceEntry, hint)
}

// RecycleRouting clears t and keeps its storage for a later
// ComputeRoutingScratch. Callers must only recycle tables nothing else
// can reference, such as a freshly computed table discarded by an
// unchanged recompute. Entry paths are arena-backed and are NOT
// reclaimed (they may be aliased); only the map buckets are reused.
func (s *ComputeScratch) RecycleRouting(t RoutingTable) {
	if s == nil || t == nil {
		return
	}
	clear(t)
	s.routing = append(s.routing, t)
}

// RecyclePricing clears t (rows included) and keeps the storage; the
// same ownership rules as RecycleRouting apply.
func (s *ComputeScratch) RecyclePricing(t PricingTable) {
	if s == nil || t == nil {
		return
	}
	for d, row := range t {
		clear(row)
		s.rows = append(s.rows, row)
		delete(t, d)
	}
	s.pricing = append(s.pricing, t)
}

// contribList returns the cleared reusable contribution list.
func (s *ComputeScratch) contribList(hint int) []contrib {
	if s == nil {
		return make([]contrib, 0, hint)
	}
	return s.contribs[:0]
}

// keepContribs stores the (possibly regrown) list for the next call.
func (s *ComputeScratch) keepContribs(c []contrib) {
	if s != nil {
		s.contribs = c[:0]
	}
}
