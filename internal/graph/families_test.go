package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// families enumerates every new generator under one harness so the
// property tests (biconnected, deterministic per seed, sane costs)
// cover each family × cost distribution without per-family copies.
var families = []struct {
	name  string
	build func(cost CostFn, rng *rand.Rand) (*Graph, error)
}{
	{"prefattach-m1", func(c CostFn, r *rand.Rand) (*Graph, error) { return PreferentialAttachment(24, 1, c, r) }},
	{"prefattach-m3", func(c CostFn, r *rand.Rand) (*Graph, error) { return PreferentialAttachment(24, 3, c, r) }},
	{"waxman-sparse", func(c CostFn, r *rand.Rand) (*Graph, error) { return Waxman(24, 0.25, 0.15, c, r) }},
	{"waxman-dense", func(c CostFn, r *rand.Rand) (*Graph, error) { return Waxman(24, 0.9, 0.6, c, r) }},
	{"torus", func(c CostFn, r *rand.Rand) (*Graph, error) { return Torus(4, 6, c, r) }},
	{"twotier", func(c CostFn, r *rand.Rand) (*Graph, error) { return TwoTier(4, 6, c, r) }},
	{"twotier-min", func(c CostFn, r *rand.Rand) (*Graph, error) { return TwoTier(3, 2, c, r) }},
}

var costModels = []struct {
	name string
	fn   CostFn
}{
	{"uniform", UniformCost(10)},
	{"heavy", HeavyTailedCost(2, 1.3)},
	{"bimodal", BimodalCost(3, 200, 0.25)},
	{"default-nil", nil},
}

func TestFamiliesBiconnectedAndCosted(t *testing.T) {
	for _, fam := range families {
		for _, cm := range costModels {
			t.Run(fam.name+"/"+cm.name, func(t *testing.T) {
				for seed := int64(1); seed <= 5; seed++ {
					g, err := fam.build(cm.fn, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if !g.IsBiconnected() {
						t.Fatalf("seed %d: graph not biconnected (n=%d m=%d, articulation %v)",
							seed, g.N(), g.M(), g.ArticulationPoints())
					}
					for i := 0; i < g.N(); i++ {
						if g.Cost(NodeID(i)) < 1 {
							t.Fatalf("seed %d: node %d has cost %d < 1", seed, i, g.Cost(NodeID(i)))
						}
					}
				}
			})
		}
	}
}

// TestFamiliesDeterministicPerSeed rebuilds every family twice from
// the same seed and demands identical structure and costs — the
// property that makes scenario.Spec a pure function of its fields.
func TestFamiliesDeterministicPerSeed(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				a, err := fam.build(HeavyTailedCost(2, 1.5), rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				b, err := fam.build(HeavyTailedCost(2, 1.5), rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Edges(), b.Edges()) {
					t.Fatalf("seed %d: edge sets differ between two builds", seed)
				}
				if !reflect.DeepEqual(a.costs, b.costs) {
					t.Fatalf("seed %d: cost vectors differ between two builds", seed)
				}
			}
		})
	}
}

func TestFamiliesRejectInvalidSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"prefattach-n2", func() (*Graph, error) { return PreferentialAttachment(2, 1, nil, rng) }},
		{"prefattach-m0", func() (*Graph, error) { return PreferentialAttachment(8, 0, nil, rng) }},
		{"prefattach-m-ge-n", func() (*Graph, error) { return PreferentialAttachment(8, 8, nil, rng) }},
		{"waxman-n2", func() (*Graph, error) { return Waxman(2, 0.5, 0.5, nil, rng) }},
		{"waxman-alpha0", func() (*Graph, error) { return Waxman(8, 0, 0.5, nil, rng) }},
		{"waxman-beta0", func() (*Graph, error) { return Waxman(8, 0.5, 0, nil, rng) }},
		{"torus-2x5", func() (*Graph, error) { return Torus(2, 5, nil, rng) }},
		{"torus-5x2", func() (*Graph, error) { return Torus(5, 2, nil, rng) }},
		{"twotier-2clusters", func() (*Graph, error) { return TwoTier(2, 4, nil, rng) }},
		{"twotier-size1", func() (*Graph, error) { return TwoTier(4, 1, nil, rng) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if g, err := c.build(); err == nil {
				t.Fatalf("expected an error, got a graph with n=%d", g.N())
			}
		})
	}
}

func TestRepairBiconnected(t *testing.T) {
	// A path graph: every interior node is an articulation point.
	g := New(6)
	for i := 0; i < 5; i++ {
		_ = g.AddEdge(NodeID(i), NodeID(i+1))
	}
	if err := RepairBiconnected(g); err != nil {
		t.Fatal(err)
	}
	if !g.IsBiconnected() {
		t.Fatal("path graph not repaired to biconnected")
	}
	// Disconnected islands get chained first.
	g = New(7)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(4, 5)
	if err := RepairBiconnected(g); err != nil {
		t.Fatal(err)
	}
	if !g.IsBiconnected() {
		t.Fatal("islands not repaired to biconnected")
	}
	// Already-biconnected graphs are left untouched.
	ring, err := Ring(5, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	before := ring.M()
	if err := RepairBiconnected(ring); err != nil {
		t.Fatal(err)
	}
	if ring.M() != before {
		t.Fatalf("repair added %d edges to an already-biconnected ring", ring.M()-before)
	}
	if err := RepairBiconnected(New(2)); err == nil {
		t.Fatal("n=2 should be rejected")
	}
}
