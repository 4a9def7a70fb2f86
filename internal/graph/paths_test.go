package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// bruteForce enumerates all simple paths src→dst (skipping avoid) and
// returns the lowest transit cost with lexicographic tie-break. It is
// the independent reference implementation for Dijkstra.
func bruteForce(g *Graph, src, dst NodeID, avoid map[NodeID]bool) (Path, Cost) {
	var bestPath Path
	bestCost := Infinity
	visited := make(map[NodeID]bool)
	var walk func(u NodeID, path Path, cost Cost)
	walk = func(u NodeID, path Path, cost Cost) {
		if u == dst {
			if bestPath == nil || Better(cost, path, bestCost, bestPath) {
				bestCost = cost
				bestPath = slices.Clone(path)
			}
			return
		}
		for _, v := range g.Neighbors(u) {
			if visited[v] || avoid[v] {
				continue
			}
			extra := Cost(0)
			if v != dst {
				extra = g.Cost(v) // v will be a transit node if we continue past it
			}
			visited[v] = true
			walk(v, append(path, v), cost+extra)
			visited[v] = false
		}
	}
	visited[src] = true
	walk(src, Path{src}, 0)
	return bestPath, bestCost
}

// distances returns the lowest-cost distance matrix of g, one SSSP per
// source.
func distances(g *Graph) ([][]Cost, error) {
	var (
		t Tree
		s Scratch
	)
	dist := make([][]Cost, g.N())
	for i := range dist {
		if err := g.SSSP(&t, &s, NodeID(i)); err != nil {
			return nil, err
		}
		dist[i] = append([]Cost(nil), t.Dist...)
	}
	return dist, nil
}

// TestPathCost pins what a tree's labels mean: Dist is the transit cost
// of the route PathTo reconstructs, the sum of its intermediate nodes'
// costs (endpoints transit free), Hops its edge count, and every step
// an edge of the graph.
func TestPathCost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, s := &Tree{}, &Scratch{}
	for trial := 0; trial < 20; trial++ {
		g, err := RandomBiconnected(4+rng.Intn(10), rng.Intn(12), 9, rng)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < g.N(); src++ {
			if err := g.SSSP(tr, s, NodeID(src)); err != nil {
				t.Fatal(err)
			}
			for dst := 0; dst < g.N(); dst++ {
				p := tr.PathTo(NodeID(dst))
				var cost Cost
				for i := 1; i < len(p); i++ {
					if !g.HasEdge(p[i-1], p[i]) {
						t.Fatalf("trial %d: route %d→%d = %v steps off the graph", trial, src, dst, p)
					}
					if i < len(p)-1 {
						cost += g.Cost(p[i])
					}
				}
				if p[0] != NodeID(src) || cost != tr.Dist[dst] || len(p)-1 != int(tr.Hops[dst]) {
					t.Fatalf("trial %d: route %d→%d = %v costs %d in %d hops, labels say %d in %d",
						trial, src, dst, p, cost, len(p)-1, tr.Dist[dst], tr.Hops[dst])
				}
			}
		}
	}
}

func TestFigure1QuotedFacts(t *testing.T) {
	g := Figure1()
	byName := func(s string) NodeID {
		id, ok := g.ByName(s)
		if !ok {
			t.Fatalf("node %s missing", s)
		}
		return id
	}
	x, z, d, b := byName("X"), byName("Z"), byName("D"), byName("B")
	tr, s := &Tree{}, &Scratch{}
	route := func(src, dst NodeID) (Path, Cost) {
		t.Helper()
		if err := g.SSSP(tr, s, src); err != nil {
			t.Fatal(err)
		}
		return tr.PathTo(dst), tr.Dist[dst]
	}

	p, cost := route(x, z)
	if cost != 2 {
		t.Errorf("cost(X→Z) = %d, want 2 (paper §4.1)", cost)
	}
	want := Path{x, d, byName("C"), z}
	if !p.Equal(want) {
		t.Errorf("LCP(X→Z) = %v, want X-D-C-Z", p)
	}
	if _, cost := route(z, d); cost != 1 {
		t.Errorf("cost(Z→D) = %d, want 1 (paper §4.1)", cost)
	}
	if _, cost := route(b, d); cost != 0 {
		t.Errorf("cost(B→D) = %d, want 0 (paper §4.1)", cost)
	}
}

func TestFigure1IsBiconnected(t *testing.T) {
	if !Figure1().IsBiconnected() {
		t.Error("Figure 1 graph must be biconnected (FPSS assumption)")
	}
}

func TestShortestPathAvoiding(t *testing.T) {
	g := Figure1()
	x, _ := g.ByName("X")
	z, _ := g.ByName("Z")
	c, _ := g.ByName("C")
	a, _ := g.ByName("A")
	base, noC, s := &Tree{}, &Tree{}, &Scratch{}
	if err := g.SSSP(base, s, x); err != nil {
		t.Fatal(err)
	}
	if err := g.SSSPWithout(noC, s, base, c); err != nil {
		t.Fatal(err)
	}
	if cost := noC.Dist[z]; cost != 5 {
		t.Errorf("cost(X→Z avoiding C) = %d, want 5 (via A)", cost)
	}
	p := noC.PathTo(z)
	if !p.Contains(a) {
		t.Errorf("path avoiding C should go via A, got %v", p)
	}
	if p.Contains(c) {
		t.Errorf("path contains avoided node: %v", p)
	}
	if err := g.SSSPWithout(noC, s, base, x); !errors.Is(err, ErrSourceAvoided) {
		t.Errorf("avoiding the source: err = %v, want ErrSourceAvoided", err)
	}
}

func TestDijkstraAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, s := &Tree{}, &Scratch{}
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5)
		g, err := RandomBiconnected(n, rng.Intn(2*n), 20, rng)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < n; src++ {
			if err := g.SSSP(tr, s, NodeID(src)); err != nil {
				t.Fatal(err)
			}
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				wantPath, wantCost := bruteForce(g, NodeID(src), NodeID(dst), nil)
				if tr.Dist[dst] != wantCost {
					t.Fatalf("trial %d: dist(%d,%d) = %d, brute force %d", trial, src, dst, tr.Dist[dst], wantCost)
				}
				if p := tr.PathTo(NodeID(dst)); !p.Equal(wantPath) {
					t.Fatalf("trial %d: path(%d,%d) = %v, brute force %v (tie-break mismatch)",
						trial, src, dst, p, wantPath)
				}
			}
		}
	}
}

func TestDijkstraAvoidingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base, noK, s := &Tree{}, &Tree{}, &Scratch{}
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(4)
		g, err := RandomBiconnected(n, rng.Intn(n), 15, rng)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < n; src++ {
			if err := g.SSSP(base, s, NodeID(src)); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				if k == src {
					continue
				}
				if err := g.SSSPWithout(noK, s, base, NodeID(k)); err != nil {
					t.Fatal(err)
				}
				for dst := 0; dst < n; dst++ {
					if dst == src || dst == k {
						continue
					}
					wantPath, wantCost := bruteForce(g, NodeID(src), NodeID(dst), map[NodeID]bool{NodeID(k): true})
					if wantPath == nil {
						if noK.Reached(NodeID(dst)) {
							t.Fatalf("avoid (%d,%d;-%d) reached, brute force finds no path", src, dst, k)
						}
						continue
					}
					if got := noK.Dist[dst]; got != wantCost {
						t.Fatalf("avoid dist(%d,%d;-%d) = %d, want %d", src, dst, k, got, wantCost)
					}
				}
			}
		}
	}
}

func TestUnreachable(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1)
	tr := &Tree{}
	if err := g.SSSP(tr, &Scratch{}, 0); err != nil {
		t.Fatal(err)
	}
	if tr.Reached(2) || tr.Dist[2] != Infinity || tr.PathTo(2) != nil {
		t.Error("unreachable node should be unreached, with Infinity cost and nil path")
	}
}

func TestDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ring, err := Ring(6, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := ring.Diameter(); err != nil || d < 2 || d > 5 {
		t.Errorf("ring-6 diameter = %d (%v), want within [2,5]", d, err)
	}
	cl, err := Clique([]Cost{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := cl.Diameter(); err != nil || d != 1 {
		t.Errorf("clique diameter = %d (%v), want 1", d, err)
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{1, 2, 3, 4}
	tr := p.TransitNodes()
	if len(tr) != 2 || tr[0] != 2 || tr[1] != 3 {
		t.Errorf("TransitNodes = %v, want [2 3]", tr)
	}
	if (Path{1}).TransitNodes() != nil {
		t.Error("short path should have no transit nodes")
	}
	if !p.Contains(3) || p.Contains(9) {
		t.Error("Contains wrong")
	}
	if !(Path{1, 2}).Less(Path{1, 3}) || (Path{2}).Less(Path{1, 5}) {
		t.Error("Less ordering wrong")
	}
	if !(Path{1}).Less(Path{1, 2}) {
		t.Error("prefix should be Less")
	}
}

func TestBetterCompositeOrder(t *testing.T) {
	tests := []struct {
		name   string
		c1, c2 Cost
		p1, p2 Path
		want   bool
	}{
		{"lower cost wins", 1, 2, Path{0, 5, 9}, Path{0, 9}, true},
		{"higher cost loses", 3, 2, Path{0, 9}, Path{0, 5, 9}, false},
		{"tie: fewer hops wins", 2, 2, Path{0, 9}, Path{0, 1, 9}, true},
		{"tie: more hops loses", 2, 2, Path{0, 1, 9}, Path{0, 9}, false},
		{"full tie: lex wins", 2, 2, Path{0, 1, 9}, Path{0, 2, 9}, true},
		{"identical: not better", 2, 2, Path{0, 1, 9}, Path{0, 1, 9}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Better(tt.c1, tt.p1, tt.c2, tt.p2); got != tt.want {
				t.Errorf("Better = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestWithoutNode(t *testing.T) {
	g := Figure1()
	c, _ := g.ByName("C")
	x, _ := g.ByName("X")
	z, _ := g.ByName("Z")
	h, err := g.WithoutNode(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Neighbors(c)) != 0 {
		t.Error("removed node should be isolated")
	}
	for _, v := range h.Neighbors(z) {
		if v == c {
			t.Error("neighbor still references removed node")
		}
	}
	// Original untouched.
	if len(g.Neighbors(c)) == 0 {
		t.Error("WithoutNode mutated original")
	}
	// Distances in G−C match SSSPWithout in G.
	base, noC, want, s := &Tree{}, &Tree{}, &Tree{}, &Scratch{}
	if err := g.SSSP(base, s, x); err != nil {
		t.Fatal(err)
	}
	if err := g.SSSPWithout(noC, s, base, c); err != nil {
		t.Fatal(err)
	}
	if err := h.SSSP(want, s, x); err != nil {
		t.Fatal(err)
	}
	if noC.Dist[z] != want.Dist[z] {
		t.Errorf("G−C dist = %d, SSSPWithout dist = %d", want.Dist[z], noC.Dist[z])
	}
	if _, err := g.WithoutNode(99); err == nil {
		t.Error("out of range should error")
	}
}

// Property: for random biconnected graphs, the lexicographic tie-break
// yields identical LCPs computed from either endpoint direction when
// path cost is symmetric... (costs are on nodes, so cost(i→j) equals
// cost(j→i); the tie-broken *path* may differ in orientation, but the
// cost must match).
func TestPropertySymmetricCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + int(seed%5+5)%5
		g, err := RandomBiconnected(n, n/2, 12, r)
		if err != nil {
			return false
		}
		dist, err := distances(g)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dist[i][j] != dist[j][i] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: adding an edge never increases any pairwise distance.
func TestPropertyEdgeMonotonicity(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5
		g, err := RandomBiconnected(n, 0, 10, r)
		if err != nil {
			return false
		}
		before, err := distances(g)
		if err != nil {
			return false
		}
		// Add one random absent edge if there is room.
		added := false
		for try := 0; try < 50 && !added; try++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
				added = true
			}
		}
		after, err := distances(g)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if after[i][j] > before[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
