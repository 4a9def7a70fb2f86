package fpss

import (
	"slices"

	"repro/internal/graph"
)

// Derivation is a principal's own DATA2/DATA3* computation state: the
// latest neighbor views, the tables derived from them, and the set of
// destinations whose inputs changed since the last derivation.
//
// Destination j's route entry and pricing row depend only on DATA1 and
// on the neighbors' entries and rows for j, so Derive re-derives just
// the dirty destinations with ComputeTables' per-destination kernels.
// The result always equals ComputeTables over the same inputs; it
// stays the specification, and a principal whose Post hooks rewrite
// its tables still runs it whole.
//
// Tables are copy-on-write: a derivation that changes anything builds
// new tables that share every untouched entry and row with the old
// ones, and never edits the old ones, which neighbors' views, in-flight
// updates and checkers' records alias. Views are kept the same way, so
// callers must never edit a table after handing it to SetView.
//
// Derived tables have one slot per destination the principal knows of
// (see tableLen). Growing them to a new length is padding, not a
// change: it is not reported, so it sends no advertisement.
type Derivation struct {
	self      graph.NodeID
	neighbors []graph.NodeID
	// views[i] is the latest view of neighbors[i], and heard[i] whether
	// one has arrived.
	views []NeighborView
	heard []bool
	// costs is the kernels' dense copy of DATA1, refreshed by the first
	// Derive after MarkAll.
	costs []costSlot
	// n is the tables' length; it only grows.
	n int
	// dirty marks the destinations to re-derive; all stands for every
	// destination (before the first derivation, after a DATA1 change,
	// and always for a principal with Post hooks).
	dirty   []bool
	all     bool
	routing RoutingTable
	pricing PricingTable
	scratch ComputeScratch
}

// NewDerivation starts the derivation state of principal self. The
// neighbor list is retained and must not change.
func NewDerivation(self graph.NodeID, neighbors []graph.NodeID) Derivation {
	return Derivation{
		self:      self,
		neighbors: neighbors,
		views:     make([]NeighborView, len(neighbors)),
		heard:     make([]bool, len(neighbors)),
		all:       true,
	}
}

// Routing returns the derived DATA2, shared and read-only.
func (d *Derivation) Routing() RoutingTable { return d.routing }

// Pricing returns the derived DATA3*, shared and read-only.
func (d *Derivation) Pricing() PricingTable { return d.pricing }

// View returns the latest view of neighbor v.
func (d *Derivation) View(v graph.NodeID) (NeighborView, bool) {
	if i := slices.Index(d.neighbors, v); i >= 0 && d.heard[i] {
		return d.views[i], true
	}
	return NeighborView{}, false
}

// Scratch returns the arena and working sets behind this derivation,
// for the owner's other computations (a checker's mirrors).
func (d *Derivation) Scratch() *ComputeScratch { return &d.scratch }

// MarkAll marks every destination dirty; call it when DATA1 changes.
func (d *Derivation) MarkAll() { d.all = true }

// SetView replaces neighbor v's view and marks each destination whose
// route entry or pricing row differs by identity between the old view
// and the new: a route with another cost or path backing array, a row
// that is another map. A table the new view shares with the old is
// skipped whole. Published tables are never edited, so an identical
// entry is an equal one; an equal entry rebuilt elsewhere is marked
// too, and re-deriving it reports no change. A view from a node that
// is not a neighbor is dropped: no kernel reads it.
func (d *Derivation) SetView(v graph.NodeID, view NeighborView) {
	i := slices.Index(d.neighbors, v)
	if i < 0 {
		return
	}
	old := d.views[i]
	d.views[i], d.heard[i] = view, true
	if d.all {
		return
	}
	d.grow(len(view.Routing))
	if !sameSlice(old.Routing, view.Routing) {
		for j := range max(len(old.Routing), len(view.Routing)) {
			o, had := old.Routing.Get(graph.NodeID(j))
			e, has := view.Routing.Get(graph.NodeID(j))
			if had != has || has && (o.Cost != e.Cost || !sameSlice(o.Path, e.Path)) {
				d.dirty[j] = true
			}
		}
	}
	if !sameSlice(old.Pricing, view.Pricing) {
		// A row past the tables' end belongs to a destination no
		// neighbor routes to, so it has no row to derive yet.
		for j := range min(max(len(old.Pricing), len(view.Pricing)), d.n) {
			if !sameRow(old.Pricing.Row(graph.NodeID(j)), view.Pricing.Row(graph.NodeID(j))) {
				d.dirty[j] = true
			}
		}
	}
}

// grow lengthens the tables-to-be, and the dirty set, to n slots.
func (d *Derivation) grow(n int) {
	if n > d.n {
		d.n = n
		d.dirty = append(d.dirty, make([]bool, n-len(d.dirty))...)
	}
}

// Derive brings the tables up to date with the views and costs (DATA1)
// and reports whether they changed. A principal without Post hooks
// re-derives only the dirty destinations; one with hooks recomputes
// and rewrites the whole tables, pricing against its rewritten routing.
func (d *Derivation) Derive(costs CostTable, st *Strategy) bool {
	if d.all {
		d.costs = denseCosts(d.costs, costs)
	}
	if st != nil && (st.PostRouting != nil || st.PostPricing != nil) {
		s := &d.scratch
		routing := st.postRouting(s.computeRouting(d.self, d.neighbors, d.costs, d.views))
		pricing := st.postPricing(s.computePricing(d.self, d.neighbors, d.costs, routing, d.views))
		changed := !routing.Equal(d.routing) || !pricing.Equal(d.pricing)
		// Equal tables are installed too, so a padded length sticks. The
		// replaced tables may be aliased and are left to the GC.
		d.routing, d.pricing = routing, pricing
		return changed
	}
	return d.deriveDirty()
}

// deriveDirty re-derives the dirty destinations, in ascending order,
// and installs copy-on-write tables if any of them moved.
func (d *Derivation) deriveDirty() bool {
	if d.all {
		d.grow(tableLen(d.costs, d.neighbors, d.views))
		for j := range d.dirty {
			d.dirty[j] = true
		}
		d.all = false
	}
	s := &d.scratch
	var routing RoutingTable
	var pricing PricingTable
	for j, dirty := range d.dirty {
		if !dirty {
			continue
		}
		d.dirty[j] = false
		dst := graph.NodeID(j)
		if dst == d.self {
			continue
		}
		route, had := d.routing.Get(dst)
		cost, base, ok := s.routeTo(d.self, dst, d.neighbors, d.costs, d.views)
		if ok != had || ok && (route.Cost != cost || !prefixedBy(route.Path, d.self, base)) {
			if routing == nil {
				routing = cloneTable(d.routing, d.n)
			}
			route = RouteEntry{}
			if ok {
				route = RouteEntry{Cost: cost, Path: s.prepend(d.self, base)}
			}
			routing[j] = route
		}
		cells := s.priceRow(d.self, dst, route, d.neighbors, d.costs, d.views)
		if !rowMatches(d.pricing.Row(dst), d.self, cells) {
			if pricing == nil {
				pricing = cloneTable(d.pricing, d.n)
			}
			pricing[j] = nil
			if len(cells) > 0 {
				pricing[j] = s.materializeRow(d.self, cells)
			}
		}
	}
	changed := routing != nil || pricing != nil
	// Pad tables shorter than n; see the type's comment.
	if routing == nil && len(d.routing) < d.n {
		routing = cloneTable(d.routing, d.n)
	}
	if pricing == nil && len(d.pricing) < d.n {
		pricing = cloneTable(d.pricing, d.n)
	}
	if routing != nil {
		d.routing = routing
	}
	if pricing != nil {
		d.pricing = pricing
	}
	return changed
}

// cloneTable returns a writable shallow copy of t with at least n
// slots: entries and rows are shared, which is safe because tables are
// never edited in place.
func cloneTable[S ~[]E, E any](t S, n int) S {
	out := make(S, max(n, len(t)))
	copy(out, t)
	return out
}
