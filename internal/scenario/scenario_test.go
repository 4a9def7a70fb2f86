package scenario

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
)

// validSpecs is a representative spread across every axis: all nine
// families, all three named cost models, all four workloads.
func validSpecs() []Spec {
	return []Spec{
		{Family: Figure1, Seed: 1},
		{Family: Clique, N: 5, CostModel: CostHeavyTailed, Seed: 2},
		{Family: Ring, N: 7, Workload: WorkloadHotspot, Seed: 3},
		{Family: RingChords, N: 9, ExtraEdges: 3, CostModel: CostBimodal, Seed: 4},
		{Family: Random, N: 8, Workload: WorkloadSparse, CostModel: CostUniform, Seed: 5},
		{Family: PrefAttach, N: 16, Degree: 2, Workload: WorkloadGossip, CostModel: CostHeavyTailed, Seed: 6},
		{Family: Waxman, N: 14, Workload: WorkloadHotspot, CostModel: CostBimodal, Seed: 7},
		{Family: Torus, N: 12, Workload: WorkloadGossip, Seed: 8},
		{Family: TwoTier, N: 12, Workload: WorkloadSparse, CostModel: CostHeavyTailed, Seed: 9},
	}
}

func TestCompileEveryFamilyWorkloadCostModel(t *testing.T) {
	for _, sp := range validSpecs() {
		t.Run(sp.Describe(), func(t *testing.T) {
			c, err := sp.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if !c.Graph.IsBiconnected() {
				t.Fatalf("compiled graph not biconnected (n=%d)", c.Graph.N())
			}
			if len(c.Params.Traffic) == 0 {
				t.Fatal("compiled scenario has no traffic")
			}
			for flow := range c.Params.Traffic {
				if flow[0] == flow[1] {
					t.Fatalf("self-flow %v in workload %q", flow, sp.Workload)
				}
			}
			if c.Params.DeliveryValue <= 0 {
				t.Fatalf("economic defaults missing: %+v", c.Params)
			}
		})
	}
}

// TestCompileDeterministic compiles each spec twice and demands
// identical graphs, costs, traffic and parameters — the property that
// lets a one-line Spec stand in for a scenario in reports and repros.
func TestCompileDeterministic(t *testing.T) {
	for _, sp := range validSpecs() {
		a, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Graph.Edges(), b.Graph.Edges()) {
			t.Errorf("%s: edges differ across compilations", sp.Describe())
		}
		for v := graph.NodeID(0); int(v) < a.Graph.N(); v++ {
			if a.Graph.Cost(v) != b.Graph.Cost(v) {
				t.Errorf("%s: cost of %d differs across compilations", sp.Describe(), v)
			}
		}
		if !reflect.DeepEqual(a.Params.Traffic, b.Params.Traffic) {
			t.Errorf("%s: traffic differs across compilations", sp.Describe())
		}
	}
}

func TestCompileRejectsInvalidSpecs(t *testing.T) {
	bad := []Spec{
		{},                       // no family
		{Family: "mobius", N: 8}, // unknown family
		{Family: Random, N: 2},   // too small
		{Family: Clique, N: 2},   // too small
		{Family: Torus, N: 7},    // prime: no rows×cols factoring
		{Family: TwoTier, N: 5},  // no clusters·size factoring
		{Family: Figure1, N: 9},  // figure1 is fixed-size
		{Family: Figure1, CostModel: CostBimodal},                        // figure1 costs are fixed
		{Family: Random, N: 8, Workload: "flood"},                        // unknown workload
		{Family: Random, N: 8, CostModel: "normal"},                      // unknown cost model
		{Family: Random, N: 8, Loss: Loss{Rate: 1}},                      // certain loss
		{Family: Random, N: 8, Loss: Loss{Rate: 1.5}},                    // not a probability
		{Family: Random, N: 8, Loss: Loss{Rate: -0.1}},                   // negative rate
		{Family: Random, N: 8, Loss: Loss{Rate: math.NaN()}},             // NaN rate
		{Family: Random, N: 8, Loss: Loss{Rate: 0.1, Burst: -1}},         // negative burst
		{Family: Random, N: 8, Loss: Loss{Rate: 0.1, Burst: math.NaN()}}, // NaN burst
		{Family: Random, N: 8, Loss: Loss{Burst: 3}},                     // burst without a rate
	}
	for _, sp := range bad {
		if c, err := sp.Compile(); err == nil {
			t.Errorf("spec %+v compiled (n=%d); want error", sp, c.Graph.N())
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	const n = 8
	cases := []struct {
		w     Workload
		flows int
	}{
		{WorkloadAllPairs, n * (n - 1)},
		{WorkloadHotspot, 2 * (n - 1)},
		{WorkloadSparse, 2 * n},
		{WorkloadGossip, 3 * n},
	}
	for _, tc := range cases {
		c, err := Spec{Family: Ring, N: n, Workload: tc.w, Seed: 11}.Compile()
		if err != nil {
			t.Fatalf("%s: %v", tc.w, err)
		}
		if len(c.Params.Traffic) != tc.flows {
			t.Errorf("%s: %d flows, want %d", tc.w, len(c.Params.Traffic), tc.flows)
		}
	}
}

// TestCompiledArtifacts checks the compiled views agree with each
// other: Systems share the scenario's graph and params, FaithfulConfig
// drives an honest run to completion, and ExecConfig carries the true
// costs.
func TestCompiledArtifacts(t *testing.T) {
	c, err := Spec{Family: TwoTier, N: 9, Workload: WorkloadHotspot, Seed: 3}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	plain, faith := c.Systems()
	if plain.Graph != c.Graph || faith.Graph != c.Graph {
		t.Fatal("systems do not share the compiled graph")
	}
	if len(plain.Nodes()) != c.Graph.N() || len(faith.Nodes()) != c.Graph.N() {
		t.Fatal("systems node count mismatch")
	}
	res, err := faithful.Run(c.FaithfulConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Detections) != 0 {
		t.Fatalf("honest faithful run flagged: completed=%v detections=%v", res.Completed, res.Detections)
	}
	ec := c.ExecConfig()
	if len(ec.TrueCosts) != c.Graph.N() {
		t.Fatalf("ExecConfig true costs cover %d nodes, want %d", len(ec.TrueCosts), c.Graph.N())
	}
	for i := 0; i < c.Graph.N(); i++ {
		id := graph.NodeID(i)
		if ec.TrueCosts[id] != c.Graph.Cost(id) {
			t.Fatalf("node %d: ExecConfig cost %d != graph cost %d", i, ec.TrueCosts[id], c.Graph.Cost(id))
		}
	}
	if ec.Scheme != fpss.SchemeVCG {
		t.Fatalf("default scheme = %v, want VCG", ec.Scheme)
	}
}

// TestFaithfulnessOnCompiledScenario runs the full deviation search on
// one small non-classic scenario: the extended specification must stay
// violation-free off the beaten path too.
func TestFaithfulnessOnCompiledScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full deviation search")
	}
	c, err := Spec{Family: TwoTier, N: 6, Workload: WorkloadHotspot, CostModel: CostUniform, Seed: 2}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.CheckFaithfulnessCfg(c.FaithfulSystem(), core.CheckConfig{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Faithful() {
		t.Fatalf("faithful system violated on %s: %v", c.Spec.Describe(), rep.Violations)
	}
}
