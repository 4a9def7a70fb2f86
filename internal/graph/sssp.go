package graph

import (
	"errors"
	"math"
	"sync"
)

// This file is the allocation-free single-source core behind every
// path query in the package. Instead of materializing an O(n) path
// slice per heap label (and cloning it on every relaxation), the core
// labels each node with (dist, hops, parent) and reconstructs paths on
// demand from the parent pointers. The composite (cost, hops,
// lexicographic) route order of Better is preserved exactly:
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

// ErrSourceAvoided is returned when the SSSP source is in the avoid
// set, or is the node SSSPWithout removes.
var ErrSourceAvoided = errors.New("graph: source is in avoid set")

const (
	noParent = int32(-1)
	noTarget = NodeID(-1)
	// unreachedHops marks nodes with no settled label yet; any real hop
	// count compares below it.
	unreachedHops = int32(math.MaxInt32)
)

// NodeSet is a bitset over node IDs — the allocation-free avoid set
// for SSSP queries. A nil *NodeSet is an empty set.
type NodeSet struct {
	words []uint64
}

// NewNodeSet returns an empty set sized for node IDs below n.
func NewNodeSet(n int) *NodeSet {
	return &NodeSet{words: make([]uint64, (n+63)/64)}
}

// grow ensures capacity for IDs below n, preserving members.
func (s *NodeSet) grow(n int) {
	if w := (n + 63) / 64; w > len(s.words) {
		s.words = append(s.words, make([]uint64, w-len(s.words))...)
	}
}

// Add inserts id, growing the set if needed.
func (s *NodeSet) Add(id NodeID) {
	s.grow(int(id) + 1)
	s.words[id>>6] |= 1 << (uint(id) & 63)
}

// Remove deletes id.
func (s *NodeSet) Remove(id NodeID) {
	if int(id>>6) < len(s.words) {
		s.words[id>>6] &^= 1 << (uint(id) & 63)
	}
}

// Has reports membership. Safe on a nil set.
func (s *NodeSet) Has(id NodeID) bool {
	if s == nil {
		return false
	}
	w := int(id >> 6)
	return w < len(s.words) && s.words[w]&(1<<(uint(id)&63)) != 0
}

// Clear empties the set, keeping capacity.
func (s *NodeSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

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

// Reached reports whether dst has a settled route from Src. After an
// early-exit SSSPTo run only the target's label is guaranteed final.
func (t *Tree) Reached(dst NodeID) bool {
	return int(dst) < len(t.Dist) && t.Dist[dst] < Infinity
}

// PathTo reconstructs the unique best Src→dst path, or nil when dst is
// unreached. The returned path is freshly allocated at exact size.
func (t *Tree) PathTo(dst NodeID) Path {
	if !t.Reached(dst) {
		return nil
	}
	return t.AppendPathTo(make(Path, 0, int(t.Hops[dst])+1), dst)
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
// heap, settled flags and lexicographic tie-break buffers. A Scratch
// grows on demand and serves any number of sequential runs; use one
// per goroutine (it is not safe for concurrent use).
type Scratch struct {
	heap   []heapNode
	done   []bool
	pa, pb []NodeID // equal-length root chains during lex tie-breaks
	avoid  NodeSet  // staging area for map- and single-node avoid sets

	// Delta-repair working set (see delta.go); unused by plain runs.
	taint   []uint8 // old-tree chain cleanliness memo, old numbering
	tstack  []int32 // parent-chain walk stack for the taint memo
	carPar  []int32 // carried parent per new node, -2 when not carried
	changed []bool  // popped node's chain differs from the carried one

	// sub lists the removed node's subtree during SSSPWithout (see
	// without.go); unused by other runs.
	sub []int32
}

// NewScratch returns a Scratch pre-sized for n nodes.
func NewScratch(n int) *Scratch {
	return &Scratch{
		heap: make([]heapNode, 0, n),
		done: make([]bool, n),
		pa:   make([]NodeID, 0, n),
		pb:   make([]NodeID, 0, n),
	}
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

// SSSP computes the full lowest-cost route tree from src into t,
// skipping nodes in avoid (nil means none; src must not be a member).
// The result is byte-identical to the path-materializing reference:
// the same unique (cost, hops, lex)-optimal route for every pair.
func (g *Graph) SSSP(t *Tree, s *Scratch, src NodeID, avoid *NodeSet) error {
	return g.sssp(t, s, src, avoid, noTarget)
}

// SSSPTo is SSSP with an early exit: the run stops as soon as dst is
// settled (its label is final at that point), leaving the rest of the
// tree partial. Only t's labels for dst — and the parent chain behind
// them — are meaningful afterwards.
func (g *Graph) SSSPTo(t *Tree, s *Scratch, src, dst NodeID, avoid *NodeSet) error {
	if err := g.check(dst); err != nil {
		return err
	}
	return g.sssp(t, s, src, avoid, dst)
}

func (g *Graph) sssp(t *Tree, s *Scratch, src NodeID, avoid *NodeSet, until NodeID) error {
	if err := g.check(src); err != nil {
		return err
	}
	if avoid.Has(src) {
		return ErrSourceAvoided
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
		if u == until {
			return nil
		}
		// Extending beyond u makes u a transit node (unless u is src).
		var transit Cost
		if u != src {
			transit = g.costs[u]
		}
		nd := t.Dist[u] + transit
		nh := t.Hops[u] + 1
		for _, v := range adj[off[u]:off[u+1]] {
			if s.done[v] || avoid.Has(v) {
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

// ssspState bundles a Tree and Scratch for the pooled convenience
// wrappers in paths.go.
type ssspState struct {
	t Tree
	s Scratch
}

var ssspPool = sync.Pool{New: func() any { return new(ssspState) }}

// avoidSet stages a map-form avoid set into the scratch bitset,
// returning nil for an empty set. Out-of-range IDs are dropped — they
// can never match a node, which is how the map form treated them.
func (s *Scratch) avoidSet(n int, avoid map[NodeID]bool) *NodeSet {
	if len(avoid) == 0 {
		return nil
	}
	s.avoid.grow(n)
	s.avoid.Clear()
	for id, in := range avoid {
		if in && id >= 0 && int(id) < n {
			s.avoid.Add(id)
		}
	}
	return &s.avoid
}
