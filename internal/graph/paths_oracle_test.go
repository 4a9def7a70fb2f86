package graph

// The pre-optimization Dijkstra, kept verbatim as a differential
// oracle: it materializes a full path per heap label and compares
// whole paths inside the heap, which makes its route order trivially
// auditable against Better. TestDifferentialSSSPOracle proves the
// parent-pointer core in sssp.go reproduces it byte for byte. Better,
// WithoutNode and PathTo are the tests' support: the route order
// spelled out on materialized paths, G−k as a graph of its own, and a
// tree's route at exact size.

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Better reports whether route (c1, p1) is preferred over (c2, p2)
// under the composite (cost, hop count, lexicographic) order. The hop
// tie-break excludes zero-cost cycles, so asynchronous Bellman–Ford
// relaxation (the distributed FPSS computation) and centralized
// Dijkstra converge to the same unique route for every pair.
func Better(c1 Cost, p1 Path, c2 Cost, p2 Path) bool {
	if c1 != c2 {
		return c1 < c2
	}
	if len(p1) != len(p2) {
		return len(p1) < len(p2)
	}
	return p1.Less(p2)
}

// WithoutNode returns a copy of the graph in which node k keeps its
// ID but loses every incident edge (isolating it): G−k, whose routes
// are the lowest-cost paths that avoid k.
func (g *Graph) WithoutNode(k NodeID) (*Graph, error) {
	if err := g.check(k); err != nil {
		return nil, err
	}
	c := g.Clone()
	for v := range c.adj[k] {
		delete(c.adj[v], k)
	}
	c.adj[k] = make(map[NodeID]struct{})
	c.invalidateCSR()
	return c, nil
}

// PathTo reconstructs the unique best Src→dst path, or nil when dst is
// unreached. The returned path is freshly allocated at exact size.
func (t *Tree) PathTo(dst NodeID) Path {
	if !t.Reached(dst) {
		return nil
	}
	return t.AppendPathTo(make(Path, 0, int(t.Hops[dst])+1), dst)
}

// treePaths reads every destination's distance and route out of a
// tree, in the oracle's shape.
func treePaths(t *Tree) ([]Cost, []Path) {
	paths := make([]Path, len(t.Dist))
	for j := range paths {
		paths[j] = t.AppendPathTo(nil, NodeID(j))
	}
	return t.Dist, paths
}

// oracleLabel is a Dijkstra priority-queue entry of the reference
// implementation.
type oracleLabel struct {
	node NodeID
	dist Cost
	path Path
}

type oracleHeap []oracleLabel

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	return Better(h[i].dist, h[i].path, h[j].dist, h[j].path)
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleLabel)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oracleShortestPaths is the original path-materializing
// ShortestPaths, unchanged except for its name.
func (g *Graph) oracleShortestPaths(src NodeID, avoid map[NodeID]bool) ([]Cost, []Path, error) {
	if err := g.check(src); err != nil {
		return nil, nil, err
	}
	if avoid[src] {
		return nil, nil, errors.New("graph: source is in avoid set")
	}
	n := g.N()
	dist := make([]Cost, n)
	best := make([]Path, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Infinity
	}
	h := &oracleHeap{{node: src, dist: 0, path: Path{src}}}
	for h.Len() > 0 {
		cur := heap.Pop(h).(oracleLabel)
		u := cur.node
		if done[u] {
			continue
		}
		done[u] = true
		dist[u] = cur.dist
		best[u] = cur.path
		// Extending beyond u makes u a transit node (unless u is src).
		var transit Cost
		if u != src {
			transit = g.costs[u]
		}
		for _, v := range g.Neighbors(u) {
			if done[v] || avoid[v] {
				continue
			}
			nd := cur.dist + transit
			np := append(slices.Clone(cur.path), v)
			if best[v] == nil || Better(nd, np, dist[v], best[v]) {
				dist[v] = nd
				best[v] = np
				heap.Push(h, oracleLabel{node: v, dist: nd, path: np})
			}
		}
	}
	for i := range best {
		if !done[i] {
			best[i] = nil
			dist[i] = Infinity
		}
	}
	return dist, best, nil
}

// diffGraph builds the seeded graph for differential case i, cycling
// through the generators and a range of sizes and densities so ties
// (equal-cost, equal-hop alternatives) are common.
func diffGraph(t *testing.T, seed int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 4 + rng.Intn(13) // 4..16
	var (
		g   *Graph
		err error
	)
	switch seed % 3 {
	case 0:
		// Low max cost forces frequent cost ties.
		g, err = RandomBiconnected(n, n, 3, rng)
	case 1:
		g, err = RingWithChords(n, n/2, 8, rng)
	default:
		g, err = RandomBiconnected(n, 2*n, 20, rng)
	}
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return g
}

// TestDifferentialSSSPOracle checks the parent-pointer core against
// the reference Dijkstra on 200+ random seeded graphs: every source,
// every destination, full sweeps and sweeps over G−k, distances and
// routes byte-identical.
func TestDifferentialSSSPOracle(t *testing.T) {
	const cases = 220
	tr, s := &Tree{}, &Scratch{}
	// check requires SSSP from src over h to match the oracle's run
	// from src over g, avoiding avoid.
	check := func(label string, g, h *Graph, src NodeID, avoid map[NodeID]bool) {
		t.Helper()
		wantD, wantP, err := g.oracleShortestPaths(src, avoid)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		if err := h.SSSP(tr, s, src); err != nil {
			t.Fatalf("%s: SSSP: %v", label, err)
		}
		gotD, gotP := treePaths(tr)
		for j := range wantD {
			if wantD[j] != gotD[j] || !wantP[j].Equal(gotP[j]) {
				t.Fatalf("%s dst %d: oracle (%d, %v) != SSSP (%d, %v)",
					label, j, wantD[j], wantP[j], gotD[j], gotP[j])
			}
		}
	}
	for seed := 0; seed < cases; seed++ {
		g := diffGraph(t, seed)
		n := g.N()
		for src := 0; src < n; src++ {
			check(fmt.Sprintf("seed %d src %d", seed, src), g, g, NodeID(src), nil)
		}
		// Sweeps over G−k from a couple of sources per graph.
		for k := 0; k < n; k++ {
			gk, err := g.WithoutNode(NodeID(k))
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < n && src < 3; src++ {
				if src != k {
					label := fmt.Sprintf("seed %d src %d avoid %d", seed, src, k)
					check(label, g, gk, NodeID(src), map[NodeID]bool{NodeID(k): true})
				}
			}
		}
	}
}

func TestTreePathReconstruction(t *testing.T) {
	g := Figure1()
	tr := &Tree{}
	x, _ := g.ByName("X")
	z, _ := g.ByName("Z")
	if err := g.SSSP(tr, &Scratch{}, x); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(Path{x, 3, 2, z}) // X-D-C-Z, the paper's quoted LCP
	if got := fmt.Sprint(tr.PathTo(z)); got != want {
		t.Fatalf("PathTo(Z) = %s, want %s", got, want)
	}
	if tr.Dist[z] != 2 {
		t.Fatalf("Dist[Z] = %d, want 2", tr.Dist[z])
	}
	if tr.Hops[z] != 3 {
		t.Fatalf("Hops[Z] = %d, want 3", tr.Hops[z])
	}
	// AppendPathTo reuses the buffer without reallocating when capacity
	// suffices.
	buf := make(Path, 0, 8)
	out := tr.AppendPathTo(buf, z)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendPathTo reallocated despite sufficient capacity")
	}
	// An ID outside the tree is unreached, on either side.
	for _, dst := range []NodeID{-1, NodeID(g.N())} {
		if tr.Reached(dst) {
			t.Errorf("Reached(%d) = true", dst)
		}
		if p := tr.PathTo(dst); p != nil {
			t.Errorf("PathTo(%d) = %v, want nil", dst, p)
		}
		if p := tr.AppendPathTo(buf[:1], dst); len(p) != 1 {
			t.Errorf("AppendPathTo(p, %d) = %v, want p unchanged", dst, p)
		}
	}
}
