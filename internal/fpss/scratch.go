package fpss

import (
	"repro/internal/graph"
)

// ComputeScratch is the reusable storage behind DATA2/DATA3*
// derivation. Every entry of a derived table carries a witness path,
// and every pricing entry a tag set; allocating each separately was
// most of the protocol's garbage. The scratch attacks that two ways:
//
//   - witness paths and tag sets are carved out of a chunked NodeID
//     arena. Chunks start small and double, so a node of a small
//     network never pays for a large one. Handed-out slices are never
//     reused, so tables that share entries with earlier tables (see
//     Derivation) stay valid after a chunk is dropped to the GC;
//   - the per-call working sets (the kernels' dense DATA1 and aligned
//     views, contribution list, candidate cells and their tags) are
//     kept warm across calls, and a candidate is materialized into the
//     arena only once it is known to enter a table.
//
// A scratch is single-owner state, never shared across goroutines: one
// per protocol node (inside its Derivation), and one per worker of a
// central solve (see centralWorker), which uses only the arena, to
// carve its route paths, witness paths and tag sets. The zero value is
// ready to use.
type ComputeScratch struct {
	ids      []graph.NodeID
	chunk    int
	direct   [1]graph.NodeID
	costs    []costSlot
	views    []NeighborView
	contribs []contrib
	cells    []priceCell
	tags     []graph.NodeID
}

// The arena's first chunk holds minChunk IDs; each later chunk doubles
// up to maxChunk. Small enough that a node of a small network uses most
// of what it takes, big enough that chunk turnover is noise at scale.
// maxChunk is one ID short of 4096 so that a capped chunk, 32,760 bytes,
// stays a small-object allocation: the runtime sends any request above
// 32 KiB minus its 8-byte malloc header to the large-object allocator,
// which gives each chunk its own span, even for pointer-free memory.
const (
	minChunk = 256
	maxChunk = 4095
)

// allocIDs reserves a zero-length slice with capacity n in the arena.
// The returned slice is exclusively the caller's: later reservations
// start past it (full-slice expression), and chunks are abandoned to
// the GC — never rewound — so entries that survive into advertised
// tables remain immutable.
func (s *ComputeScratch) allocIDs(n int) []graph.NodeID {
	if cap(s.ids)-len(s.ids) < n {
		c := max(s.chunk, minChunk)
		s.chunk = min(2*c, maxChunk)
		s.ids = make([]graph.NodeID, 0, max(c, n))
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

// copyIDs materializes ids as a slice carved from the arena.
func (s *ComputeScratch) copyIDs(ids []graph.NodeID) []graph.NodeID {
	return append(s.allocIDs(len(ids)), ids...)
}

// load converts ComputeRouting's and ComputePricing's inputs into the
// kernels' form, in s: DATA1 indexed by NodeID, and views aligned with
// neighbors. Both stay valid until the next load.
func (s *ComputeScratch) load(neighbors []graph.NodeID, costs CostTable, views map[graph.NodeID]NeighborView) ([]costSlot, []NeighborView) {
	s.costs = denseCosts(s.costs, costs)
	s.views = s.views[:0]
	for _, v := range neighbors {
		s.views = append(s.views, views[v])
	}
	return s.costs, s.views
}
