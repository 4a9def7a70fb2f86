package scenario

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestDeriveSeedPinned is the regression guard around the FNV-1a +
// splitmix64 suite keying: the derived per-scenario seeds are part of
// the reproducibility contract (every committed sweep output depends
// on them), so any change to the keying shows up here as an exact
// mismatch, not as silently different sweeps.
func TestDeriveSeedPinned(t *testing.T) {
	cases := []struct {
		base int64
		sp   Spec
		want int64
	}{
		{1, Spec{Family: Random, N: 8, Workload: WorkloadAllPairs, CostModel: CostUniform}, 453723182315541180},
		{1, Spec{Family: PrefAttach, N: 24, Workload: WorkloadHotspot, CostModel: CostHeavyTailed}, 77934866617195956},
		{1, Spec{Family: Figure1}, 4590127154507915066},
		{5, Spec{Family: Random, N: 8, Workload: WorkloadAllPairs, CostModel: CostUniform}, 2623412173047557260},
		{5, Spec{Family: PrefAttach, N: 24, Workload: WorkloadHotspot, CostModel: CostHeavyTailed}, 993171768912770208},
		{5, Spec{Family: Figure1}, 3646928281342549540},
	}
	for _, tc := range cases {
		if got := deriveSeed(tc.base, tc.sp); got != tc.want {
			t.Errorf("deriveSeed(%d, %q) = %d, want %d (keying changed?)", tc.base, tc.sp.Describe(), got, tc.want)
		}
	}
}

// TestSharedSpecSeedsAcrossSuites: suite membership must not leak into
// the seeds. Two suites sharing a spec derive it the same seed under
// the same base (identity keying), and the *other* specs of each suite
// still get seeds independent of one another — no positional coupling.
func TestSharedSpecSeedsAcrossSuites(t *testing.T) {
	a := Suite{Name: "a", Families: []Family{Random, PrefAttach, Waxman}, Sizes: []int{8},
		Workloads: []Workload{WorkloadAllPairs}, CostModels: []CostModel{CostUniform}}
	b := Suite{Name: "b", Families: []Family{Waxman}, Sizes: []int{8},
		Workloads: []Workload{WorkloadHotspot, WorkloadAllPairs}, CostModels: []CostModel{CostUniform}}
	sa, sb := a.Specs(9), b.Specs(9)
	seed := func(specs []Spec, fam Family, w Workload) int64 {
		for _, sp := range specs {
			if sp.Family == fam && sp.Workload == w {
				return sp.Seed
			}
		}
		t.Fatalf("spec %s/%s missing", fam, w)
		return 0
	}
	// The shared scenario: same identity, same base ⇒ same seed, even
	// though it sits at different positions in the two suites.
	if x, y := seed(sa, Waxman, WorkloadAllPairs), seed(sb, Waxman, WorkloadAllPairs); x != y {
		t.Errorf("shared spec derives different seeds across suites: %d vs %d", x, y)
	}
	// Distinct identities never collide within or across the suites.
	seen := make(map[int64]string)
	for _, sp := range append(append([]Spec{}, sa...), sb...) {
		key := sp.Describe()
		if prev, dup := seen[sp.Seed]; dup && prev != key {
			t.Errorf("seed %d shared by %q and %q", sp.Seed, prev, key)
		}
		seen[sp.Seed] = key
	}
}

// TestChurnSuiteSpecs: the churn axis flows from the suite into every
// spec, shows up in the identity label (so churn scenarios never
// collide with their static counterparts), and the built-in churn
// suite's epoch-0 scenarios compile.
func TestChurnSuiteSpecs(t *testing.T) {
	s, ok := LookupSuite("churn")
	if !ok {
		t.Fatal("churn suite not registered")
	}
	specs := s.Specs(1)
	if len(specs) == 0 {
		t.Fatal("churn suite empty")
	}
	for _, sp := range specs {
		if !sp.Churn.Dynamic() {
			t.Fatalf("%s: churn axis not applied", sp.Describe())
		}
		if sp.Churn != s.Churn {
			t.Fatalf("%s: churn %+v, want %+v", sp.Describe(), sp.Churn, s.Churn)
		}
	}
	// The identity label distinguishes dynamic from static.
	static := specs[0]
	static.Churn = Churn{}
	if specs[0].Describe() == static.Describe() {
		t.Error("churn spec and static spec share an identity label")
	}
	if specs[0].Seed == deriveSeed(1, static) {
		t.Error("churn spec and static spec derive the same seed")
	}
}

// TestDescribeChurn pins the churn rendering (it feeds seed keying).
func TestDescribeChurn(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Seed: 2, Churn: Churn{Epochs: 3, Joins: 1, Leaves: 2}}
	if got, want := sp.Describe(), "random n=6 epochs=3 join=1 leave=2 seed=2"; got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	sp.Churn.RedrawFraction = 0.25
	if got, want := sp.Describe(), "random n=6 epochs=3 join=1 leave=2 redraw=0.25 seed=2"; got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	// Every timeline-shaping field renders at full precision — distinct
	// dynamics must never share an identity (they key suite seeds).
	sp.Churn.RedrawFraction = 0.251
	if got, want := sp.Describe(), "random n=6 epochs=3 join=1 leave=2 redraw=0.251 seed=2"; got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	// Static specs keep the exact pre-churn label — the derived seeds
	// of every existing suite depend on it.
	sp.Churn = Churn{Epochs: 1}
	if got, want := sp.Describe(), "random n=6 seed=2"; got != want {
		t.Errorf("static Describe = %q, want %q", got, want)
	}
}

// TestMaterializeMatchesBuildWith: the churn engine's per-epoch
// materialization is the same parameter path Compile uses.
func TestMaterializeMatchesBuildWith(t *testing.T) {
	sp := Spec{Family: Random, N: 6, CheckerLimit: 2, Seed: 4}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := sp.Materialize(c.Graph, c.Params.Traffic)
	if !reflect.DeepEqual(m.Params, c.Params) {
		t.Errorf("Materialize params %+v != Compile params %+v", m.Params, c.Params)
	}
	if m.Graph != c.Graph {
		t.Error("Materialize must wrap the supplied graph")
	}
}

// TestTrafficForAndCostFunc: the exported churn-facing helpers follow
// the same distributions the compiler uses.
func TestTrafficForAndCostFunc(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Workload: WorkloadGossip, Seed: 7}
	tr, err := sp.TrafficFor(10, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 10*3 {
		t.Errorf("gossip traffic for n=10 has %d flows, want 30", len(tr))
	}
	sp.CostModel = CostBimodal
	fn, err := sp.CostFunc()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if c := fn(rng); c < 1 {
			t.Fatalf("cost draw %d below 1", c)
		}
	}
	sp.CostModel = "martian"
	if _, err := sp.CostFunc(); err == nil {
		t.Error("unknown cost model accepted")
	}
	sp.CostModel = CostDefault
	sp.Workload = "flood"
	if _, err := sp.TrafficFor(5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown workload accepted")
	}
}
