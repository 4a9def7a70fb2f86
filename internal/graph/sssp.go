package graph

import (
	"errors"
	"math"
)

// This file is the allocation-free single-source core behind every
// path query in the package. Instead of materializing an O(n) path
// slice per heap label (and cloning it on every relaxation), the core
// labels each node with (dist, hops, parent) and reconstructs paths on
// demand from the parent pointers. The composite route order (lower
// cost, then fewer hops, then the lexicographically smaller node
// sequence) is preserved exactly:
//
//   - (cost, hops) strictly increases along any edge (costs are
//     non-negative and hops always grow by one), so a node popped with
//     the minimum (dist, hops) key is settled — no later relaxation
//     can match its key, let alone beat it.
//   - Any relaxation that ties a node's (dist, hops) must come from a
//     parent with a strictly smaller key, i.e. one settled earlier.
//     So by the time a node pops, all equal-key candidates have been
//     seen and the lexicographically smallest parent chain has won.
//   - Prefix optimality holds for the composite order (a better prefix
//     would splice into a better or cycle-free shorter full path), so
//     parent pointers suffice: the unique best path to v extends the
//     unique best path to its parent.
//
// Lexicographic ties between two parent candidates with equal (dist,
// hops) are resolved by reconstructing both equal-length root chains
// into scratch buffers and comparing from the source end — O(hops),
// and only on genuine double ties.

// ErrSourceAvoided is returned when SSSPWithout is asked to remove the
// source itself.
var ErrSourceAvoided = errors.New("graph: cannot remove the source")

const (
	noParent = int32(-1)
	// unreachedHops marks nodes with no settled label yet; any real hop
	// count compares below it.
	unreachedHops = int32(math.MaxInt32)
)

// Tree is a single-source lowest-cost route tree under the composite
// (cost, hops, lexicographic) order: flat distance, hop-count and
// parent-pointer arrays indexed by NodeID. Paths are reconstructed on
// demand, so a full SSSP run allocates nothing beyond these arrays
// (and nothing at all when the Tree is reused).
type Tree struct {
	Src NodeID
	// Dist is Infinity for unreached nodes.
	Dist []Cost
	// Hops is the edge count of the best path; unreached nodes hold a
	// sentinel above any real value. Use Reached.
	Hops []int32
	// Parent is the predecessor on the unique best path, -1 for Src and
	// unreached nodes.
	Parent []int32
}

// resize sizes the label arrays for n nodes, reusing them when they
// are large enough. Labels are left as they were.
func (t *Tree) resize(n int) {
	if cap(t.Dist) < n {
		t.Dist = make([]Cost, n)
		t.Hops = make([]int32, n)
		t.Parent = make([]int32, n)
	}
	t.Dist = t.Dist[:n]
	t.Hops = t.Hops[:n]
	t.Parent = t.Parent[:n]
}

// reset sizes the tree for n nodes and clears every label.
func (t *Tree) reset(n int, src NodeID) {
	t.resize(n)
	for i := 0; i < n; i++ {
		t.Dist[i] = Infinity
		t.Hops[i] = unreachedHops
		t.Parent[i] = noParent
	}
	t.Src = src
}

// Reached reports whether dst has a settled route from Src. An ID
// outside the tree is unreached.
func (t *Tree) Reached(dst NodeID) bool {
	return uint(dst) < uint(len(t.Dist)) && t.Dist[dst] < Infinity
}

// AppendPathTo appends the Src→dst node sequence to p and returns the
// extended slice (p unchanged when dst is unreached).
func (t *Tree) AppendPathTo(p Path, dst NodeID) Path {
	if !t.Reached(dst) {
		return p
	}
	start := len(p)
	for v := int32(dst); v != noParent; v = t.Parent[v] {
		p = append(p, NodeID(v))
	}
	// The parent walk yields dst→Src; flip the appended segment.
	for i, j := start, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// heapNode is one priority-queue entry: the tentative (dist, hops) key
// of node at push time. Stale entries are skipped via Scratch.done.
type heapNode struct {
	dist Cost
	hops int32
	node int32
}

// less orders heap entries by (dist, hops, node): the first two fields
// are the route order (lexicographic ties never reach the heap — they
// update parents in place), and the node ID makes pop order fully
// deterministic.
func (a heapNode) less(b heapNode) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

// Scratch is the reusable working set of one SSSP run: the binary
// heap, settled flags and lexicographic tie-break buffers. The zero
// value is ready to use: a Scratch grows on demand and serves any
// number of sequential runs; use one per goroutine (it is not safe for
// concurrent use).
type Scratch struct {
	heap   []heapNode
	done   []bool
	pa, pb []NodeID // equal-length root chains during lex tie-breaks

	// sub lists the removed node's subtree during SSSPWithout (see
	// without.go); unused by other runs.
	sub []int32
}

func (s *Scratch) reset(n int) {
	if cap(s.done) < n {
		s.done = make([]bool, n)
	}
	s.done = s.done[:n]
	for i := range s.done {
		s.done[i] = false
	}
	s.heap = s.heap[:0]
}

func (s *Scratch) push(e heapNode) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.heap[i].less(s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *Scratch) pop() heapNode {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	s.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && h[l].less(h[min]) {
			min = l
		}
		if r < last && h[r].less(h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// lexBefore reports whether the settled root chain of u is
// lexicographically before that of w. Both chains have equal length
// (callers only ask on (dist, hops) double ties) and live in the tree,
// so the comparison reconstructs them into the scratch buffers and
// scans from the source end.
func (s *Scratch) lexBefore(t *Tree, u, w NodeID) bool {
	if u == w {
		return false
	}
	pa := s.pa[:0]
	for v := int32(u); v != noParent; v = t.Parent[v] {
		pa = append(pa, NodeID(v))
	}
	pb := s.pb[:0]
	for v := int32(w); v != noParent; v = t.Parent[v] {
		pb = append(pb, NodeID(v))
	}
	s.pa, s.pb = pa, pb
	for i := len(pa) - 1; i >= 0; i-- {
		if pa[i] != pb[i] {
			return pa[i] < pb[i]
		}
	}
	return false
}

// SSSP computes the full lowest-cost route tree from src into t. The
// result is byte-identical to the path-materializing reference: the
// same unique (cost, hops, lex)-optimal route for every pair. A route
// that must avoid a node k comes from SSSPWithout.
func (g *Graph) SSSP(t *Tree, s *Scratch, src NodeID) error {
	if err := g.check(src); err != nil {
		return err
	}
	off, adj := g.ensureCSR()
	n := len(g.costs)
	t.reset(n, src)
	s.reset(n)
	t.Dist[src] = 0
	t.Hops[src] = 0
	s.push(heapNode{dist: 0, hops: 0, node: int32(src)})
	for len(s.heap) > 0 {
		top := s.pop()
		u := NodeID(top.node)
		if s.done[u] {
			continue // stale entry superseded by a better label
		}
		s.done[u] = true
		// Extending beyond u makes u a transit node (unless u is src).
		var transit Cost
		if u != src {
			transit = g.costs[u]
		}
		nd := t.Dist[u] + transit
		nh := t.Hops[u] + 1
		for _, v := range adj[off[u]:off[u+1]] {
			if s.done[v] {
				continue
			}
			switch {
			case nd < t.Dist[v] || (nd == t.Dist[v] && nh < t.Hops[v]):
				t.Dist[v] = nd
				t.Hops[v] = nh
				t.Parent[v] = int32(u)
				s.push(heapNode{dist: nd, hops: nh, node: int32(v)})
			case nd == t.Dist[v] && nh == t.Hops[v] &&
				s.lexBefore(t, u, NodeID(t.Parent[v])):
				// Same (dist, hops) key, lexicographically smaller
				// chain: steal the parent in place. The entry already
				// queued under this key reads the final parent when it
				// pops, so no extra push is needed.
				t.Parent[v] = int32(u)
			}
		}
	}
	return nil
}
