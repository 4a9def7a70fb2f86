package graph

import "fmt"

// This file makes SSSP incremental across graph evolutions. A Delta
// captures how one graph turned into the next — which nodes left,
// which joined, whose transit costs were redrawn, which edges appeared
// — under a monotone renumbering of the survivors. SSSPDelta then
// repairs a previous tree instead of rebuilding it: labels whose
// optimal chains provably avoid the changed region are carried over
// verbatim, and a restricted Dijkstra runs only from the frontier of
// the affected region.
//
// The contract is strict: the repaired tree is byte-identical to what
// g.SSSP would produce from scratch under the composite (cost, hops,
// lex) order. That works because the optimal tree is a *canonical*
// object fully determined by the graph — the repair only has to reach
// the same canonical labels, not imitate scratch execution order. Three
// mechanisms deliver it:
//
//   - Taint: walking the old tree's parent chains, a label is carried
//     only when every node on its chain survived with its cost intact
//     and every chain edge still exists. A node's own cost change does
//     not taint its own label (endpoints transit free), only its
//     children's.
//   - Seeds: the repair heap starts from carried labels that can emit
//     new relaxations — cost-changed survivors, survivor endpoints of
//     added edges, and every clean node adjacent to a non-carried
//     (tainted or joined) node.
//   - Pop-time parent re-selection: every popped node rescans its
//     neighbors for candidates c with Dist[c]+transit(c) == Dist[u] and
//     Hops[c]+1 == Hops[u] and takes the lexicographically smallest
//     chain. All such candidates have strictly smaller (dist, hops)
//     keys, hence are final when u pops, so the re-selection sees
//     exactly the candidate set scratch SSSP saw. Equal-key ties are
//     re-pushed whenever the relaxing node's chain changed, its cost
//     changed, or the edge is new — propagating chain changes down
//     carried subtrees.
//
// Carried labels never need improving relaxations from unseeded clean
// nodes: any such extension already existed unchanged in the old graph,
// so the old (hence carried) label already accounts for it.

// Delta describes the evolution from an old graph to a new one under a
// node remap. Build one with NewDelta; a nil *Delta means "no usable
// delta" and makes SSSPDelta fall back to a scratch run.
type Delta struct {
	oldToNew []NodeID // -1 for nodes that left
	newToOld []NodeID // -1 for nodes that joined
	// costChanged marks survivors (new numbering) whose transit cost
	// differs between the graphs.
	costChanged []bool
	// seed marks survivors (new numbering) whose carried label can emit
	// relaxations scratch SSSP would have emitted and the old tree never
	// saw: cost-changed survivors and survivor endpoints of added
	// survivor–survivor edges.
	seed []bool
	// extDirtyOld marks old nodes whose path *extension* changed:
	// removed nodes and cost-changed survivors (old numbering). Children
	// of such nodes in an old tree cannot be carried.
	extDirtyOld []bool
	// addedEdges holds survivor–survivor edges present only in the new
	// graph, packed u<<32|v with u < v in new numbering. Consulted only
	// on equal-key ties.
	addedEdges map[uint64]struct{}
}

func packEdge(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// NOld returns the node count of the pre-delta graph.
func (d *Delta) NOld() int { return len(d.oldToNew) }

// NNew returns the node count of the post-delta graph.
func (d *Delta) NNew() int { return len(d.newToOld) }

// NewToOld maps a new-graph node to its old-graph ID, or -1 for a
// joiner.
func (d *Delta) NewToOld(w NodeID) NodeID {
	if w < 0 || int(w) >= len(d.newToOld) {
		return -1
	}
	return d.newToOld[w]
}

// NewDelta builds the evolution descriptor from oldG to newG.
// oldToNew[v] names the new ID of old node v, or -1 if v left; new IDs
// not covered are joiners. The surviving map must be injective and
// strictly increasing — an order-preserving remap is what keeps carried
// lexicographic tie decisions valid, since node-ID comparisons on
// clean chains must mean the same thing in both numberings. (The churn
// layer satisfies this for free: members sort ascending by identity
// and joiners always receive fresh identities above every existing
// one.)
func NewDelta(oldG, newG *Graph, oldToNew []NodeID) (*Delta, error) {
	nOld, nNew := oldG.N(), newG.N()
	if len(oldToNew) != nOld {
		return nil, fmt.Errorf("graph: delta remap length %d != old n %d", len(oldToNew), nOld)
	}
	d := &Delta{
		oldToNew:    append([]NodeID(nil), oldToNew...),
		newToOld:    make([]NodeID, nNew),
		costChanged: make([]bool, nNew),
		seed:        make([]bool, nNew),
		extDirtyOld: make([]bool, nOld),
	}
	for w := range d.newToOld {
		d.newToOld[w] = -1
	}
	prev := NodeID(-1)
	for v, w := range oldToNew {
		if w < 0 {
			d.extDirtyOld[v] = true // leaver: extensions through v are gone
			continue
		}
		if int(w) >= nNew {
			return nil, fmt.Errorf("graph: delta remap %d -> %d out of range (new n=%d)", v, w, nNew)
		}
		if w <= prev {
			return nil, fmt.Errorf("graph: delta remap not strictly increasing at old node %d", v)
		}
		prev = w
		if d.newToOld[w] >= 0 {
			return nil, fmt.Errorf("graph: delta remap not injective at new node %d", w)
		}
		d.newToOld[w] = NodeID(v)
		if oldG.Cost(NodeID(v)) != newG.Cost(w) {
			d.extDirtyOld[v] = true
			d.costChanged[w] = true
			d.seed[w] = true
		}
	}
	// Survivor–survivor edges present only in the new graph seed both
	// endpoints and join the tie lookup. Edges with a joiner endpoint
	// need neither: the joiner is rebuilt, so the frontier rule already
	// seeds its surviving neighbors and re-selection covers its ties.
	newOff, newAdj := newG.ensureCSR()
	for u := 0; u < nNew; u++ {
		ou := d.newToOld[u]
		if ou < 0 {
			continue
		}
		for _, v := range newAdj[newOff[u]:newOff[u+1]] {
			if v <= NodeID(u) {
				continue
			}
			ov := d.newToOld[v]
			if ov < 0 || oldG.HasEdge(ou, ov) {
				continue
			}
			d.seed[u] = true
			d.seed[v] = true
			if d.addedEdges == nil {
				d.addedEdges = make(map[uint64]struct{})
			}
			d.addedEdges[packEdge(NodeID(u), v)] = struct{}{}
		}
	}
	return d, nil
}

// edgeAdded reports whether u–v (new numbering) exists only in the new
// graph. Only survivor–survivor additions are recorded — see NewDelta.
func (d *Delta) edgeAdded(u, v NodeID) bool {
	if len(d.addedEdges) == 0 {
		return false
	}
	_, ok := d.addedEdges[packEdge(u, v)]
	return ok
}

// Taint states for the old-tree memo walk.
const (
	taintUnknown = uint8(0)
	taintClean   = uint8(1)
	taintDirty   = uint8(2)
)

// SSSPDelta computes into t the same full tree g.SSSP(t, s, src)
// would — byte-identical labels — by repairing old, the full tree of
// the same source on the pre-delta graph (taken through the remap).
// An avoid-k tree derives from the repaired full tree with
// SSSPWithout. t must not alias old. When src is a joiner, or old's
// source does not map to src, the repair silently falls back to a full
// scratch run; a shape mismatch between old and the delta is an error.
func (g *Graph) SSSPDelta(t *Tree, s *Scratch, src NodeID, old *Tree, d *Delta) error {
	if d == nil || old == nil {
		return g.SSSP(t, s, src)
	}
	if t == old {
		return fmt.Errorf("graph: SSSPDelta target aliases the old tree")
	}
	if err := g.check(src); err != nil {
		return err
	}
	n := len(g.costs)
	nOld := d.NOld()
	if d.NNew() != n {
		return fmt.Errorf("graph: delta new n %d != graph n %d", d.NNew(), n)
	}
	if len(old.Dist) != nOld {
		return fmt.Errorf("graph: old tree n %d != delta old n %d", len(old.Dist), nOld)
	}
	oldSrc := d.newToOld[src]
	if oldSrc < 0 || old.Src != oldSrc {
		return g.SSSP(t, s, src) // joiner source or foreign tree
	}

	off, adj := g.ensureCSR()
	t.reset(n, src)
	s.reset(n)
	s.sizeDelta(n, nOld)

	// Phase 1 — taint the old tree: a label is carried only when its
	// whole parent chain survived untouched. Memoized iterative walk,
	// O(nOld) amortized.
	taint := s.taint
	for v := 0; v < nOld; v++ {
		if taint[v] != taintUnknown {
			continue
		}
		cur := int32(v)
		stack := s.tstack[:0]
		for taint[cur] == taintUnknown {
			if d.oldToNew[cur] < 0 || old.Dist[cur] >= Infinity {
				taint[cur] = taintDirty
				break
			}
			if NodeID(cur) == old.Src {
				taint[cur] = taintClean
				break
			}
			p := old.Parent[cur]
			if p == noParent {
				taint[cur] = taintDirty // reachable yet parentless: not carryable
				break
			}
			stack = append(stack, cur)
			cur = p
		}
		for i := len(stack) - 1; i >= 0; i-- {
			c := stack[i]
			p := old.Parent[c]
			switch {
			case taint[p] == taintDirty:
				taint[c] = taintDirty
			case d.extDirtyOld[p] && NodeID(p) != old.Src:
				// Parent's extension changed (cost redraw). The source is
				// exempt: endpoints transit free.
				taint[c] = taintDirty
			case !g.HasEdge(d.oldToNew[p], d.oldToNew[c]):
				taint[c] = taintDirty // chain edge no longer exists
			default:
				taint[c] = taintClean
			}
		}
		s.tstack = stack[:0]
	}

	// Phase 2 — carry clean labels into the new numbering. carPar
	// remembers what was carried so changed-chain detection at pop time
	// is a single comparison; -2 marks "not carried".
	const notCarried = int32(-2)
	for w := 0; w < n; w++ {
		s.changed[w] = false
		o := d.newToOld[w]
		if o < 0 || taint[o] != taintClean {
			s.carPar[w] = notCarried
			continue
		}
		t.Dist[w] = old.Dist[o]
		t.Hops[w] = old.Hops[o]
		if op := old.Parent[o]; op != noParent {
			t.Parent[w] = int32(d.oldToNew[op])
		}
		s.carPar[w] = t.Parent[w]
	}

	// Phase 3 — seed the heap: carried nodes that can emit relaxations
	// the old tree never saw (cost changes, added edges) plus the clean
	// frontier bordering the rebuilt region.
	for w := 0; w < n; w++ {
		if s.carPar[w] == notCarried {
			continue
		}
		push := d.seed[w]
		if !push {
			for _, x := range adj[off[w]:off[w+1]] {
				if s.carPar[x] == notCarried {
					push = true
					break
				}
			}
		}
		if push {
			s.push(heapNode{dist: t.Dist[w], hops: t.Hops[w], node: int32(w)})
		}
	}

	// Phase 4 — restricted Dijkstra over the affected region. Carried
	// labels act as warm upper bounds; every popped node re-selects its
	// parent among the (final) equal-key candidates, which reproduces
	// scratch's lexicographic tie-breaking exactly.
	for len(s.heap) > 0 {
		top := s.pop()
		u := NodeID(top.node)
		if s.done[u] {
			continue // stale entry superseded by a better label
		}
		s.done[u] = true
		if u != src {
			s.reselectParent(g, t, u, src, off, adj)
		}
		// A node's chain changed when it was rebuilt, its parent differs
		// from the carried one, or its (possibly re-chosen) parent's own
		// chain changed.
		ch := s.carPar[u] == notCarried
		if !ch {
			if p := t.Parent[u]; p != s.carPar[u] {
				ch = true
			} else if p != noParent && s.changed[p] {
				ch = true
			}
		}
		s.changed[u] = ch
		tieCh := ch || d.costChanged[u]
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
				(tieCh || d.edgeAdded(u, v)):
				// The tie candidate set or u's chain differs from what the
				// old tree decided on; push v at its (final) key so it
				// re-selects at pop. Equal-key pushes always pop after u
				// and before anything that reads v's parent, so no in-place
				// steal is needed here.
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
// ties over. Unreached neighbors — SSSPWithout's removed node among
// them — are never candidates.
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

// sizeDelta grows and clears the repair-only scratch arrays: taint is
// indexed by old IDs, carPar/changed by new IDs.
func (s *Scratch) sizeDelta(n, nOld int) {
	if cap(s.taint) < nOld {
		s.taint = make([]uint8, nOld)
	}
	s.taint = s.taint[:nOld]
	for i := range s.taint {
		s.taint[i] = taintUnknown
	}
	if cap(s.carPar) < n {
		s.carPar = make([]int32, n)
		s.changed = make([]bool, n)
	}
	s.carPar = s.carPar[:n]
	s.changed = s.changed[:n]
	if s.tstack == nil {
		s.tstack = make([]int32, 0, nOld)
	}
}
