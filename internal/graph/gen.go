package graph

import (
	"fmt"
	"math/rand"
)

// Figure1 builds the exact 6-node example network of the paper's
// Figure 1 ("LCPs from Z"), with named nodes A, B, C, D, X, Z and
// per-packet transit costs A=5, B=1000, C=1, D=1, X=6, Z=100.
//
// The quoted facts hold on it: the X→Z lowest-cost path is X-D-C-Z
// with cost 2, the Z→D cost is 1 (via C), and B→D costs 0 (adjacent).
func Figure1() *Graph {
	g := New(6)
	names := []string{"A", "B", "C", "D", "X", "Z"}
	costs := []Cost{5, 1000, 1, 1, 6, 100}
	for i := range names {
		_ = g.SetName(NodeID(i), names[i])
		_ = g.SetCost(NodeID(i), costs[i])
	}
	edges := [][2]string{
		{"A", "X"}, {"A", "Z"},
		{"B", "D"}, {"B", "Z"},
		{"C", "D"}, {"C", "Z"},
		{"D", "X"},
	}
	for _, e := range edges {
		u, _ := g.ByName(e[0])
		v, _ := g.ByName(e[1])
		_ = g.AddEdge(u, v)
	}
	return g
}

// Clique returns the complete graph on the given transit costs.
func Clique(costs []Cost) (*Graph, error) {
	g := New(len(costs))
	for i, c := range costs {
		if err := g.SetCost(NodeID(i), c); err != nil {
			return nil, err
		}
	}
	for i := 0; i < len(costs); i++ {
		for j := i + 1; j < len(costs); j++ {
			if err := g.AddEdge(NodeID(i), NodeID(j)); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Ring returns a cycle on n nodes with costs drawn uniformly from
// [1, maxCost] using rng. A cycle is the minimal biconnected graph.
func Ring(n int, maxCost Cost, rng *rand.Rand) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs n >= 3, got %d", n)
	}
	g := New(n)
	for i := 0; i < n; i++ {
		_ = g.SetCost(NodeID(i), 1+Cost(rng.Int63n(int64(maxCost))))
		_ = g.AddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return g, nil
}

// RingWithChords returns a cycle on n nodes plus `chords` extra random
// edges. The result is biconnected by construction (a cycle already
// is) and mimics sparse AS-like topologies with shortcuts.
func RingWithChords(n, chords int, maxCost Cost, rng *rand.Rand) (*Graph, error) {
	g, err := Ring(n, maxCost, rng)
	if err != nil {
		return nil, err
	}
	for added := 0; added < chords; {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			// Dense small rings may have no room for more chords.
			if g.M() == n*(n-1)/2 {
				break
			}
			continue
		}
		_ = g.AddEdge(u, v)
		added++
	}
	return g, nil
}

// RandomBiconnected returns a random biconnected graph on n nodes with
// approximately extraEdges edges beyond the initial spanning cycle.
// It starts from a random Hamiltonian cycle (guaranteeing
// biconnectivity) over a random node permutation, then adds random
// chords, so topology is not biased toward ID order.
func RandomBiconnected(n, extraEdges int, maxCost Cost, rng *rand.Rand) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: biconnected needs n >= 3, got %d", n)
	}
	g := New(n)
	for i := 0; i < n; i++ {
		_ = g.SetCost(NodeID(i), 1+Cost(rng.Int63n(int64(maxCost))))
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		_ = g.AddEdge(NodeID(perm[i]), NodeID(perm[(i+1)%n]))
	}
	maxM := n * (n - 1) / 2
	for added := 0; added < extraEdges && g.M() < maxM; {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		_ = g.AddEdge(u, v)
		added++
	}
	return g, nil
}
