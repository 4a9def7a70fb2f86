package scenario

import (
	"reflect"
	"testing"
)

func TestSuiteRegistry(t *testing.T) {
	all := Suites()
	if len(all) < 4 {
		t.Fatalf("expected the built-in suites, got %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("suites not strictly sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
	for _, s := range all {
		if s.Name == "" || len(s.Families) == 0 || len(s.Sizes) == 0 ||
			len(s.Workloads) == 0 || len(s.CostModels) == 0 {
			t.Errorf("suite %q needs a name and four non-empty axes: %+v", s.Name, s)
		}
	}
	if _, ok := LookupSuite("SMOKE"); !ok {
		t.Fatal("lookup should be case-insensitive")
	}
	if _, ok := LookupSuite("no-such-suite"); ok {
		t.Fatal("unknown suite resolved")
	}
}

func TestSuiteSpecsDeterministic(t *testing.T) {
	s, ok := LookupSuite("smoke")
	if !ok {
		t.Fatal("smoke suite missing")
	}
	a := s.Specs(7)
	b := s.Specs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Specs not deterministic for a fixed seed")
	}
	if len(a) != len(s.Families)*len(s.Sizes)*len(s.Workloads)*len(s.CostModels) {
		t.Fatalf("cross product size %d, want %d", len(a),
			len(s.Families)*len(s.Sizes)*len(s.Workloads)*len(s.CostModels))
	}
	c := s.Specs(8)
	same := 0
	for i := range a {
		if a[i].Seed == c[i].Seed {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("per-spec seeds ignore the base seed")
	}
}

// TestSuiteSeedsIdentityKeyed: a scenario's derived seed depends on
// its identity and the base seed, not on its position — so the same
// (family, n, workload, cost model) in two different suites plays the
// same graph.
func TestSuiteSeedsIdentityKeyed(t *testing.T) {
	a := Suite{Name: "a", Families: []Family{Random, PrefAttach}, Sizes: []int{8},
		Workloads: []Workload{WorkloadAllPairs}, CostModels: []CostModel{CostUniform}}
	b := Suite{Name: "b", Families: []Family{PrefAttach}, Sizes: []int{8},
		Workloads: []Workload{WorkloadAllPairs}, CostModels: []CostModel{CostUniform}}
	sa := a.Specs(5)
	sb := b.Specs(5)
	// prefattach n=8 is sa[1] and sb[0].
	if sa[1].Seed != sb[0].Seed {
		t.Fatalf("identity-keyed seeds differ: %d vs %d", sa[1].Seed, sb[0].Seed)
	}
	if sa[0].Seed == sa[1].Seed {
		t.Fatal("distinct scenarios share a seed")
	}
}

// TestSuiteSpecsDedupCollapsedAxes: Figure1 ignores the size and
// cost-model axes, so a suite crossing it with several sizes/models
// must emit it once, not once per collapsed combination.
func TestSuiteSpecsDedupCollapsedAxes(t *testing.T) {
	s := Suite{Name: "fig", Families: []Family{Figure1, Random}, Sizes: []int{6, 8},
		Workloads: []Workload{WorkloadAllPairs}, CostModels: []CostModel{CostUniform, CostBimodal}}
	specs := s.Specs(1)
	// Figure1 collapses 2 sizes × 2 cost models into 1 spec; Random
	// keeps all 4 combinations.
	if len(specs) != 1+4 {
		t.Fatalf("got %d specs, want 5: %v", len(specs), specs)
	}
	fig := 0
	for _, sp := range specs {
		if sp.Family == Figure1 {
			fig++
		}
	}
	if fig != 1 {
		t.Fatalf("figure1 emitted %d times, want once", fig)
	}
}

// TestBuiltinSuitesCompile compiles every spec of every registered
// suite — the guard that suite axes only ever cross into valid
// combinations (e.g. torus sizes factor).
func TestBuiltinSuitesCompile(t *testing.T) {
	for _, s := range Suites() {
		for _, sp := range s.Specs(1) {
			c, err := sp.Compile()
			if err != nil {
				t.Errorf("suite %s: %s: %v", s.Name, sp.Describe(), err)
				continue
			}
			if !c.Graph.IsBiconnected() {
				t.Errorf("suite %s: %s: graph not biconnected", s.Name, sp.Describe())
			}
		}
	}
}
