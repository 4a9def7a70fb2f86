package graph

import "fmt"

// This file derives an avoid-k route tree from the full tree of the
// same source: the node-deletion case of dynamic shortest paths
// (Ramalingam & Reps, J. Algorithms 21(2), 1996). Deleting k changes
// only the labels whose parent chain passes through k — k's subtree in
// the base tree — so SSSPWithout copies every other label verbatim and
// runs a Dijkstra over that subtree alone.
//
// The result is byte-identical to g.SSSP over g with every edge of k
// removed:
//
//   - A label whose chain avoids k is the canonical (cost, hops, lex)
//     minimum over every path in G, and that chain is still a path in
//     G−k, whose paths are a subset of G's. So it is the minimum in
//     G−k too, and it is final from the start.
//   - A relabelled node's key can only grow, so no relabelled node can
//     improve a carried one. The Dijkstra relaxes relabelled nodes only.
//   - Each relabelled node re-selects its parent at pop time among the
//     neighbors whose final label extends exactly to its key
//     (reselectParent). Every such candidate has a strictly smaller
//     key, so it is carried or already popped, and the candidate set
//     is the one scratch SSSP resolved ties over.

// SSSPWithout computes into t the route tree from base.Src in g with
// node k removed, byte-identical to SSSP from base.Src over a copy of
// g in which k has no edges (k stays unreached). base must be the full
// tree of the same source on g. base is only read, so concurrent calls with their own t and s may
// share it; t must not alias it. Nodes that only reached the source
// through k stay unreached.
func (g *Graph) SSSPWithout(t *Tree, s *Scratch, base *Tree, k NodeID) error {
	if t == base {
		return fmt.Errorf("graph: SSSPWithout target aliases the base tree")
	}
	if err := g.check(k); err != nil {
		return err
	}
	n := len(g.costs)
	if len(base.Dist) != n {
		return fmt.Errorf("graph: base tree n %d != graph n %d", len(base.Dist), n)
	}
	src := base.Src
	if err := g.check(src); err != nil {
		return err
	}
	if k == src {
		return ErrSourceAvoided
	}
	off, adj := g.ensureCSR()

	// k's subtree: k, then breadth-first every node whose base parent is
	// already listed. A tree edge is a graph edge, so a node's children
	// are the neighbors that name it as parent.
	sub := append(s.sub[:0], int32(k))
	for i := 0; i < len(sub); i++ {
		x := sub[i]
		for _, w := range adj[off[x]:off[x+1]] {
			if base.Parent[w] == x {
				sub = append(sub, int32(w))
			}
		}
	}
	s.sub = sub

	// Carry every label, then reset the subtree. done marks final
	// labels: everything outside the subtree, and k, which is never
	// relaxed or popped.
	t.resize(n)
	copy(t.Dist, base.Dist)
	copy(t.Hops, base.Hops)
	copy(t.Parent, base.Parent)
	t.Src = src
	s.reset(n)
	for i := range s.done {
		s.done[i] = true
	}
	for i, x := range sub {
		t.Dist[x] = Infinity
		t.Hops[x] = unreachedHops
		t.Parent[x] = noParent
		if i > 0 {
			s.done[x] = false
		}
	}

	// Seed each relabelled node with its best extension of a carried
	// neighbor. Its parent is chosen when it pops.
	for _, x := range sub[1:] {
		bd, bh := Infinity, unreachedHops
		for _, c := range adj[off[x]:off[x+1]] {
			if !s.done[c] || t.Dist[c] >= Infinity {
				continue // relabelled, k, or unreached
			}
			var ct Cost
			if c != src {
				ct = g.costs[c]
			}
			if nd, nh := t.Dist[c]+ct, t.Hops[c]+1; nd < bd || (nd == bd && nh < bh) {
				bd, bh = nd, nh
			}
		}
		if bd < Infinity {
			t.Dist[x] = bd
			t.Hops[x] = bh
			s.push(heapNode{dist: bd, hops: bh, node: x})
		}
	}

	// Dijkstra over the subtree. src is never in it, so every popped
	// node is a transit node for its extensions.
	for len(s.heap) > 0 {
		u := NodeID(s.pop().node)
		if s.done[u] {
			continue // stale entry superseded by a better label
		}
		s.done[u] = true
		s.reselectParent(g, t, u, src, off, adj)
		nd := t.Dist[u] + g.costs[u]
		nh := t.Hops[u] + 1
		for _, v := range adj[off[u]:off[u+1]] {
			if s.done[v] {
				continue
			}
			if nd < t.Dist[v] || (nd == t.Dist[v] && nh < t.Hops[v]) {
				t.Dist[v] = nd
				t.Hops[v] = nh
				s.push(heapNode{dist: nd, hops: nh, node: int32(v)})
			}
		}
	}
	return nil
}

// reselectParent recomputes u's parent as the lexicographically
// smallest chain among all neighbors whose final label extends exactly
// to u's key. Every such candidate has a strictly smaller (dist, hops)
// key than u, so — heap pops being key-monotone — its label is final
// here, and the candidate set equals the one scratch SSSP resolved
// ties over. Unreached neighbors — the removed node among them — are
// never candidates.
func (s *Scratch) reselectParent(g *Graph, t *Tree, u, src NodeID, off []int32, adj []NodeID) {
	du, hu := t.Dist[u], t.Hops[u]
	best := NodeID(-1)
	for _, c := range adj[off[u]:off[u+1]] {
		if t.Dist[c] >= Infinity {
			continue
		}
		var ct Cost
		if c != src {
			ct = g.costs[c]
		}
		if t.Dist[c]+ct != du || t.Hops[c]+1 != hu {
			continue
		}
		if best < 0 || s.lexBefore(t, c, best) {
			best = c
		}
	}
	if best >= 0 {
		t.Parent[u] = int32(best)
	}
}

// Below returns the nodes strictly below k in base's tree, as listed by
// the last successful SSSPWithout call on s, in breadth-first order:
// exactly the destinations whose route from base.Src passes through k.
// The slice is s's own: read it only, and only until the next call
// that uses s.
func (s *Scratch) Below() []int32 {
	if len(s.sub) == 0 {
		return nil
	}
	return s.sub[1:]
}
