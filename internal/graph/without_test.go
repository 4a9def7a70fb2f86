package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// requireWithoutMatches derives the avoid-k tree of every (src, k) pair
// of g from src's full tree and requires it to deep-equal scratch SSSP
// from src over G−k, the graph with k's edges removed. It also checks
// that no derivation wrote a base tree. got and s are reused across
// pairs and graphs, so stale labels from an earlier call would show.
func requireWithoutMatches(t *testing.T, label string, g *Graph, got *Tree, s *Scratch) {
	t.Helper()
	n := g.N()
	base := make([]*Tree, n)
	snapshot := make([]Tree, n)
	for src := range base {
		base[src] = &Tree{}
		if err := g.SSSP(base[src], s, NodeID(src)); err != nil {
			t.Fatalf("%s: SSSP(%d): %v", label, src, err)
		}
		snapshot[src] = Tree{
			Src:    base[src].Src,
			Dist:   append([]Cost(nil), base[src].Dist...),
			Hops:   append([]int32(nil), base[src].Hops...),
			Parent: append([]int32(nil), base[src].Parent...),
		}
	}
	want := &Tree{}
	for k := 0; k < n; k++ {
		gk, err := g.WithoutNode(NodeID(k))
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < n; src++ {
			if k == src {
				continue
			}
			if err := g.SSSPWithout(got, s, base[src], NodeID(k)); err != nil {
				t.Fatalf("%s: SSSPWithout(%d, %d): %v", label, src, k, err)
			}
			requireBelow(t, fmt.Sprintf("%s src=%d k=%d", label, src, k), base[src], int32(k), s.Below())
			if err := gk.SSSP(want, s, NodeID(src)); err != nil {
				t.Fatalf("%s: SSSP(%d) over G−%d: %v", label, src, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				requireTreesEqual(t, fmt.Sprintf("%s src=%d k=%d", label, src, k), got, want)
				t.Fatalf("%s src=%d k=%d: trees differ", label, src, k)
			}
		}
	}
	for src := range base {
		if !reflect.DeepEqual(*base[src], snapshot[src]) {
			t.Fatalf("%s src=%d: SSSPWithout wrote the base tree", label, src)
		}
	}
}

// requireTreesEqual fails at the first node whose label differs, and
// names it.
func requireTreesEqual(t *testing.T, label string, got, want *Tree) {
	t.Helper()
	if got.Src != want.Src || len(got.Dist) != len(want.Dist) {
		t.Fatalf("%s: shape mismatch: src %d/%d n %d/%d",
			label, got.Src, want.Src, len(got.Dist), len(want.Dist))
	}
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Hops[v] != want.Hops[v] ||
			got.Parent[v] != want.Parent[v] {
			t.Fatalf("%s: node %d: got (%d,%d,%d) want (%d,%d,%d)",
				label, v,
				got.Dist[v], got.Hops[v], got.Parent[v],
				want.Dist[v], want.Hops[v], want.Parent[v])
		}
	}
}

// requireBelow checks that below lists, once each, exactly the nodes
// whose parent chain in base passes through k.
func requireBelow(t *testing.T, label string, base *Tree, k int32, below []int32) {
	t.Helper()
	listed := make(map[int32]bool, len(below))
	for _, x := range below {
		if listed[x] {
			t.Fatalf("%s: Below lists %d twice", label, x)
		}
		listed[x] = true
	}
	for j := range base.Parent {
		through := false
		for v := base.Parent[j]; v != noParent && !through; v = base.Parent[v] {
			through = v == k
		}
		if through != listed[int32(j)] {
			t.Fatalf("%s: Below has %d = %v, want %v", label, j, listed[int32(j)], through)
		}
	}
}

// forestGraph draws a random forest on n nodes (each node but the first
// joins an earlier one with probability 4/5) plus a few extra edges, so
// removing a node often strands part of its subtree.
func forestGraph(n int, maxCost Cost, rng *rand.Rand) *Graph {
	g := New(n)
	for v := 0; v < n; v++ {
		_ = g.SetCost(NodeID(v), Cost(rng.Int63n(int64(maxCost)+1)))
		if v > 0 && rng.Intn(5) != 0 {
			_ = g.AddEdge(NodeID(v), NodeID(rng.Intn(v)))
		}
	}
	for e := rng.Intn(4); e > 0; e-- {
		if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
			_ = g.AddEdge(u, v)
		}
	}
	return g
}

// TestSSSPWithoutMatchesScratch pins SSSPWithout to scratch SSSP over
// G−k, for every (src, k) pair: on the biconnected
// families the pricing core sees, with zero and tiny cost ranges that
// force lexicographic ties, and on forest-like graphs where removing k
// leaves nodes unreached.
func TestSSSPWithoutMatchesScratch(t *testing.T) {
	got, s := &Tree{}, &Scratch{}
	families := []struct {
		name string
		make func(n int, rng *rand.Rand) (*Graph, error)
	}{
		{"random-c0", func(n int, rng *rand.Rand) (*Graph, error) {
			g, err := RandomBiconnected(n, n, 1, rng)
			if err == nil {
				for v := 0; v < n; v++ {
					_ = g.SetCost(NodeID(v), 0)
				}
			}
			return g, err
		}},
		{"random-c3", func(n int, rng *rand.Rand) (*Graph, error) { return RandomBiconnected(n, n, 3, rng) }},
		{"random-c20", func(n int, rng *rand.Rand) (*Graph, error) { return RandomBiconnected(n, 2*n, 20, rng) }},
		{"ring-chords", func(n int, rng *rand.Rand) (*Graph, error) { return RingWithChords(n, n/2, 8, rng) }},
		{"prefattach", func(n int, rng *rand.Rand) (*Graph, error) {
			return PreferentialAttachment(n, 1+rng.Intn(2), UniformCost(4), rng)
		}},
		{"twotier", func(n int, rng *rand.Rand) (*Graph, error) {
			return TwoTier(3+rng.Intn(3), 2+n/8, UniformCost(3), rng)
		}},
	}
	for _, fam := range families {
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 4 + rng.Intn(21) // 4..24
			g, err := fam.make(n, rng)
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			requireWithoutMatches(t, fmt.Sprintf("%s seed=%d", fam.name, seed), g, got, s)
		}
	}
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := forestGraph(2+rng.Intn(19), Cost(rng.Intn(4)), rng)
		requireWithoutMatches(t, fmt.Sprintf("forest seed=%d", seed), g, got, s)
	}
}

// TestSSSPWithoutContract pins the argument errors: the source cannot
// be removed, k must be a node of g, base must be sized for g, and the
// target must not alias base.
func TestSSSPWithoutContract(t *testing.T) {
	g := Figure1()
	n := g.N()
	s := &Scratch{}
	base := &Tree{}
	if err := g.SSSP(base, s, 1); err != nil {
		t.Fatal(err)
	}
	got := &Tree{}
	if err := g.SSSPWithout(got, s, base, 1); !errors.Is(err, ErrSourceAvoided) {
		t.Errorf("k == src: err = %v, want ErrSourceAvoided", err)
	}
	for _, k := range []NodeID{-1, NodeID(n)} {
		if err := g.SSSPWithout(got, s, base, k); !errors.Is(err, ErrNodeOutOfRange) {
			t.Errorf("k = %d: err = %v, want ErrNodeOutOfRange", k, err)
		}
	}
	ring, err := Ring(4, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	small := &Tree{}
	if err := ring.SSSP(small, s, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.SSSPWithout(got, s, small, 2); err == nil {
		t.Error("base of another size accepted")
	}
	if err := g.SSSPWithout(base, s, base, 2); err == nil {
		t.Error("target aliasing base accepted")
	}
}

// FuzzSSSPWithout turns bytes into a graph — the first byte picks n ≤
// 40, the next n bytes the costs 0–3, and every following pair an edge
// — and checks SSSPWithout against scratch SSSP over G−k for every
// (src, k) pair. The graphs need not be connected or biconnected.
func FuzzSSSPWithout(f *testing.F) {
	f.Add([]byte{5, 1, 1, 1, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%39
		data = data[1:]
		g := New(n)
		for v := 0; v < n && v < len(data); v++ {
			_ = g.SetCost(NodeID(v), Cost(data[v]%4))
		}
		if len(data) > n {
			data = data[n:]
		} else {
			data = nil
		}
		for i := 0; i+1 < len(data); i += 2 {
			if u, v := NodeID(int(data[i])%n), NodeID(int(data[i+1])%n); u != v {
				_ = g.AddEdge(u, v)
			}
		}
		requireWithoutMatches(t, "fuzz", g, &Tree{}, &Scratch{})
	})
}
