package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func path3() *Graph {
	g := New(3) // 0-1-2: node 1 is an articulation point
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	return g
}

func TestIsConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", New(0), true},
		{"single", New(1), true},
		{"two isolated", New(2), false},
		{"path", path3(), true},
		{"figure1", Figure1(), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.IsConnected(); got != tt.want {
				t.Errorf("IsConnected = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestArticulationPoints(t *testing.T) {
	g := path3()
	aps := g.ArticulationPoints()
	if len(aps) != 1 || aps[0] != 1 {
		t.Errorf("articulation points = %v, want [1]", aps)
	}

	// Two triangles sharing node 2: node 2 is a cut vertex.
	h := New(5)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}} {
		_ = h.AddEdge(e[0], e[1])
	}
	aps = h.ArticulationPoints()
	if len(aps) != 1 || aps[0] != 2 {
		t.Errorf("bowtie articulation points = %v, want [2]", aps)
	}

	if got := Figure1().ArticulationPoints(); len(got) != 0 {
		t.Errorf("Figure 1 has articulation points %v, want none", got)
	}
}

func TestIsBiconnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"too small", New(2), false},
		{"path", path3(), false},
		{"figure1", Figure1(), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.IsBiconnected(); got != tt.want {
				t.Errorf("IsBiconnected = %v, want %v", got, tt.want)
			}
		})
	}
	tri, err := Clique([]Cost{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !tri.IsBiconnected() {
		t.Error("triangle should be biconnected")
	}
}

// bruteForceIsBiconnected removes each node in turn and checks the
// remainder stays connected — the definition, independent of Tarjan.
func bruteForceIsBiconnected(g *Graph) bool {
	n := g.N()
	if n < 3 {
		return false
	}
	if !g.IsConnected() {
		return false
	}
	for skip := 0; skip < n; skip++ {
		seen := make([]bool, n)
		start := -1
		for i := 0; i < n; i++ {
			if i != skip {
				start = i
				break
			}
		}
		stack := []NodeID{NodeID(start)}
		seen[start] = true
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Neighbors(u) {
				if int(v) == skip || seen[v] {
					continue
				}
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
		if count != n-1 {
			return false
		}
	}
	return true
}

func TestTarjanAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(7)
		g := New(n)
		// Random edge set, possibly disconnected / with cut vertices.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					_ = g.AddEdge(NodeID(i), NodeID(j))
				}
			}
		}
		if got, want := g.IsBiconnected(), bruteForceIsBiconnected(g); got != want {
			t.Fatalf("trial %d: IsBiconnected = %v, brute force = %v\nedges=%v", trial, got, want, g.Edges())
		}
	}
}

func TestGeneratorsAreBiconnected(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(20)
		ring, err := Ring(n, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !ring.IsBiconnected() {
			t.Fatalf("Ring(%d) not biconnected", n)
		}
		rc, err := RingWithChords(n, rng.Intn(n), 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !rc.IsBiconnected() {
			t.Fatalf("RingWithChords(%d) not biconnected", n)
		}
		rb, err := RandomBiconnected(n, rng.Intn(2*n), 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !rb.IsBiconnected() {
			t.Fatalf("RandomBiconnected(%d) not biconnected", n)
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Ring(2, 5, rng); err == nil {
		t.Error("Ring(2) should error")
	}
	if _, err := RandomBiconnected(2, 0, 5, rng); err == nil {
		t.Error("RandomBiconnected(2) should error")
	}
}

// TestRandomCostsInRange pins the generators' cost draw: uniform over
// [1, maxCost].
func TestRandomCostsInRange(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, err := RandomBiconnected(30, 0, 9, r)
		if err != nil {
			return false
		}
		for _, c := range g.costs {
			if c < 1 || c > 9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCliqueStructure(t *testing.T) {
	g, err := Clique([]Cost{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 6 {
		t.Errorf("K4 edges = %d, want 6", g.M())
	}
	if _, err := Clique([]Cost{1, -2}); err == nil {
		t.Error("Clique with negative cost should error")
	}
}
