package fpss

import (
	"maps"

	"repro/internal/graph"
)

// Derivation is a principal's own DATA2/DATA3* computation state: the
// latest neighbor views, the tables derived from them, and the set of
// destinations whose inputs changed since the last derivation.
//
// Destination j's route entry and pricing row depend only on DATA1 and
// on the neighbors' entries and rows for j, so Derive re-derives just
// the dirty destinations with ComputeRouting's and ComputePricing's
// per-destination kernels. The result always equals those functions
// over the same inputs; they stay the specification, and a principal
// whose Post hooks rewrite its tables still runs them whole.
//
// Tables are copy-on-write: a derivation that changes anything builds
// new maps that share every untouched entry and row with the old ones,
// and never edits the old ones, which neighbors' views, in-flight
// updates and checkers' records alias. Views are kept the same way, so
// callers must never edit a table after handing it to SetView.
type Derivation struct {
	self      graph.NodeID
	neighbors []graph.NodeID
	views     map[graph.NodeID]NeighborView
	// dirty holds the destinations to re-derive; all stands for every
	// destination (before the first derivation, after a DATA1 change,
	// and always for a principal with Post hooks).
	dirty   map[graph.NodeID]bool
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
		views:     make(map[graph.NodeID]NeighborView),
		dirty:     make(map[graph.NodeID]bool),
		all:       true,
	}
}

// Routing returns the derived DATA2, shared and read-only.
func (d *Derivation) Routing() RoutingTable { return d.routing }

// Pricing returns the derived DATA3*, shared and read-only.
func (d *Derivation) Pricing() PricingTable { return d.pricing }

// View returns the latest view of neighbor v.
func (d *Derivation) View(v graph.NodeID) (NeighborView, bool) {
	view, ok := d.views[v]
	return view, ok
}

// Scratch returns the arena and working sets behind this derivation,
// for the owner's other computations (a checker's mirrors).
func (d *Derivation) Scratch() *ComputeScratch { return &d.scratch }

// MarkAll marks every destination dirty; call it when DATA1 changes.
func (d *Derivation) MarkAll() { d.all = true }

// SetView replaces neighbor v's view and marks each destination whose
// route entry or pricing row differs between the old view and the new.
func (d *Derivation) SetView(v graph.NodeID, view NeighborView) {
	old := d.views[v]
	d.views[v] = view
	if d.all {
		return
	}
	// Each loop counts the old keys it meets; only a shortfall means a
	// destination was removed and needs the reverse pass.
	kept := 0
	for j, e := range view.Routing {
		o, ok := old.Routing[j]
		if ok {
			kept++
		}
		if !ok || !o.equal(e) {
			d.dirty[j] = true
		}
	}
	if kept < len(old.Routing) {
		for j := range old.Routing {
			if _, ok := view.Routing[j]; !ok {
				d.dirty[j] = true
			}
		}
	}
	kept = 0
	for j, row := range view.Pricing {
		o, ok := old.Pricing[j]
		if ok {
			kept++
		}
		if !ok || !rowEqual(o, row) {
			d.dirty[j] = true
		}
	}
	if kept < len(old.Pricing) {
		for j := range old.Pricing {
			if _, ok := view.Pricing[j]; !ok {
				d.dirty[j] = true
			}
		}
	}
}

// Derive brings the tables up to date with the views and costs (DATA1)
// and reports whether they changed. A principal without Post hooks
// re-derives only the dirty destinations; one with hooks recomputes
// and rewrites the whole tables, pricing against its rewritten routing.
func (d *Derivation) Derive(costs CostTable, st *Strategy) bool {
	if st != nil && (st.PostRouting != nil || st.PostPricing != nil) {
		s := &d.scratch
		routing := st.postRouting(ComputeRoutingScratch(s, d.self, d.neighbors, costs, d.views))
		pricing := st.postPricing(ComputePricingScratch(s, d.self, d.neighbors, costs, routing, d.views))
		if routing.Equal(d.routing) && pricing.Equal(d.pricing) {
			return false
		}
		// The replaced tables may be aliased and are left to the GC.
		d.routing, d.pricing = routing, pricing
		return true
	}
	return d.deriveDirty(costs)
}

// deriveDirty re-derives the dirty destinations and installs
// copy-on-write tables if any of them moved.
func (d *Derivation) deriveDirty(costs CostTable) bool {
	if d.all {
		for _, v := range d.neighbors {
			d.dirty[v] = true
		}
		for _, view := range d.views {
			for j := range view.Routing {
				d.dirty[j] = true
			}
		}
		for j := range d.routing {
			d.dirty[j] = true
		}
		d.all = false
	}
	delete(d.dirty, d.self)
	s := &d.scratch
	var routing RoutingTable
	var pricing PricingTable
	for j := range d.dirty {
		route, had := d.routing[j]
		cost, base, ok := s.routeTo(d.self, j, d.neighbors, costs, d.views)
		if ok != had || ok && (route.Cost != cost || !prefixedBy(route.Path, d.self, base)) {
			if routing == nil {
				routing = cloneTable(d.routing)
			}
			if ok {
				route = RouteEntry{Dest: j, Cost: cost, Path: s.prepend(d.self, base)}
				routing[j] = route
			} else {
				route = RouteEntry{}
				delete(routing, j)
			}
		}
		cells := s.priceRow(d.self, j, route, d.neighbors, costs, d.views)
		if !rowMatches(d.pricing[j], d.self, cells) {
			if pricing == nil {
				pricing = cloneTable(d.pricing)
			}
			if len(cells) > 0 {
				pricing[j] = s.materializeRow(d.self, cells)
			} else {
				delete(pricing, j)
			}
		}
	}
	clear(d.dirty)
	if routing == nil && pricing == nil {
		return false
	}
	if routing != nil {
		d.routing = routing
	}
	if pricing != nil {
		d.pricing = pricing
	}
	return true
}

// cloneTable returns a writable shallow copy of t: entries and rows are
// shared, which is safe because tables are never edited in place.
func cloneTable[M ~map[graph.NodeID]V, V any](t M) M {
	if t == nil {
		return make(M)
	}
	return maps.Clone(t)
}
