package rational

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/spec"
)

func TestCatalogueShape(t *testing.T) {
	plain := Catalogue(false)
	full := Catalogue(true)
	if len(full) <= len(plain) {
		t.Errorf("faithful catalogue (%d) should extend plain (%d)", len(full), len(plain))
	}
	seen := make(map[string]bool)
	for _, d := range full {
		if d.Name() == "" {
			t.Error("unnamed deviation")
		}
		if seen[d.Name()] {
			t.Errorf("duplicate deviation %q", d.Name())
		}
		seen[d.Name()] = true
		if len(d.Classes()) == 0 {
			t.Errorf("deviation %q has no classes", d.Name())
		}
	}
	// The catalogue must cover all three action classes (IC, CC, AC).
	covered := make(map[spec.ActionKind]bool)
	for _, d := range full {
		for _, c := range d.Classes() {
			covered[c] = true
		}
	}
	for _, k := range []spec.ActionKind{spec.InfoRevelation, spec.MessagePassing, spec.Computation} {
		if !covered[k] {
			t.Errorf("catalogue misses class %v", k)
		}
	}
}

func TestPlainFPSSAdmitsProfitableDeviations(t *testing.T) {
	g := graph.Figure1()
	sys := &PlainSystem{Graph: g, Params: DefaultParams(g)}
	rep, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faithful() {
		t.Fatal("plain FPSS should NOT be faithful under the deviation catalogue")
	}
	// At minimum, execution-phase payment fraud profits when trusted.
	foundFraud := false
	for _, v := range rep.Violations {
		if v.Deviation == "underreport-payments-all" {
			foundFraud = true
			if v.Gain() <= 0 {
				t.Errorf("fraud gain = %d, want > 0", v.Gain())
			}
		}
	}
	if !foundFraud {
		t.Errorf("payment fraud not among violations: %v", rep.Violations)
	}
	// AC must fail: computation deviations profit somewhere.
	if rep.AC() {
		t.Error("plain FPSS should violate AC")
	}
}

func TestPlainFPSSNaivePricingViolatesIC(t *testing.T) {
	g := graph.Figure1()
	p := DefaultParams(g)
	p.Scheme = fpss.SchemeDeclaredCost
	sys := &PlainSystem{Graph: g, Params: p}
	rep, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IC() {
		t.Error("naive declared-cost pricing should violate IC (Example 1)")
	}
}

func TestPlainFPSSVCGKeepsCostMisreportsUnprofitable(t *testing.T) {
	// Under VCG with obedient computation/messaging, pure cost
	// misreports must not profit (strategyproofness) even though other
	// deviations do.
	g := graph.Figure1()
	sys := &PlainSystem{Graph: g, Params: DefaultParams(g)}
	rep, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		if v.Deviation == "misreport-cost-inflate" || v.Deviation == "misreport-cost-zero" {
			t.Errorf("pure cost misreport profited under VCG: %v", v)
		}
	}
}

func TestFaithfulSystemIsFaithfulFigure1(t *testing.T) {
	if testing.Short() {
		t.Skip("deviation searches run in the full (blocking) lane; -short only trims PR latency")
	}
	g := graph.Figure1()
	sys := &FaithfulSystem{Graph: g, Params: DefaultParams(g)}
	rep, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Faithful() {
		for _, v := range rep.Violations {
			t.Errorf("violation: %v", v)
		}
		t.Fatal("extended FPSS must be faithful (Theorem 1)")
	}
	if !rep.IC() || !rep.CC() || !rep.AC() {
		t.Error("IC/CC/AC should all hold")
	}
	if rep.Checked == 0 {
		t.Error("no deviations checked")
	}
}

func TestFaithfulSystemIsFaithfulRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("deviation searches run in the full (blocking) lane; -short only trims PR latency")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		n := 4 + rng.Intn(3)
		g, err := graph.RandomBiconnected(n, rng.Intn(n), 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		sys := &FaithfulSystem{Graph: g, Params: DefaultParams(g)}
		rep, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Faithful() {
			t.Fatalf("trial %d: violations %v", trial, rep.Violations)
		}
	}
}

func TestDetectionSignalsSurface(t *testing.T) {
	g := graph.Figure1()
	sys := &FaithfulSystem{Graph: g, Params: DefaultParams(g)}
	c, _ := g.ByName("C")
	var attract *Deviation
	for _, d := range Catalogue(true) {
		if d.Name() == "miscompute-routing-attract" {
			attract = d
		}
	}
	if attract == nil {
		t.Fatal("catalogue missing miscompute-routing-attract")
	}
	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Play(nil, st, core.NodeID(c), attract)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Error("deviant construction should not complete")
	}
	found := false
	for _, d := range out.Detected {
		if d == core.NodeID(c) {
			found = true
		}
	}
	if !found {
		t.Errorf("deviator not in Detected: %v", out.Detected)
	}
}

func TestAttractDeviationProfitsInPlain(t *testing.T) {
	// The headline gap: attracting traffic with fake cheap routes
	// profits against plain FPSS but not against the faithful spec.
	g := graph.Figure1()
	plain := &PlainSystem{Graph: g, Params: DefaultParams(g)}
	c, _ := g.ByName("C")
	var attract *Deviation
	for _, d := range Catalogue(false) {
		if d.Name() == "miscompute-routing-attract" {
			attract = d
		}
	}
	st, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base := st.Baseline()
	dev, err := plain.Play(nil, st, core.NodeID(c), attract)
	if err != nil {
		t.Fatal(err)
	}
	// Note: on Figure 1, C is already on most LCPs; attraction may or
	// may not strictly help C there, but the run must at least execute
	// and keep everyone accounted.
	if len(dev.Utilities) != len(base.Utilities) {
		t.Error("utility maps differ in size")
	}
}

func TestForeignDeviationRejected(t *testing.T) {
	g := graph.Figure1()
	plain, faith := Systems(g, DefaultParams(g))
	for _, sys := range []core.System{plain, faith} {
		st, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Play(nil, st, 0, core.BasicDeviation{DevName: "alien"}); err == nil {
			t.Errorf("%T: foreign deviation type should error", sys)
		}
	}
}

// TestTableRewritesKeepAbsentSlots applies every catalogued
// PostRouting, SendUpdate and ForwardToChecker rewrite to each
// converged Figure 1 table. A rewrite may change present routes, but
// the set of present destinations must stay the same, and an absent
// slot must stay untouched.
func TestTableRewritesKeepAbsentSlots(t *testing.T) {
	g := graph.Figure1()
	sol, err := fpss.ComputeCentral(g)
	if err != nil {
		t.Fatal(err)
	}
	var all []*Deviation
	for _, list := range [][]*Deviation{Catalogue(true), LossCatalogue(true), ShardCatalogue(true)} {
		all = append(all, list...)
	}
	hooks := 0
	for i := 0; i < g.N(); i++ {
		node := graph.NodeID(i)
		rt, pt := sol.Routing[node], sol.Pricing[node]
		update := fpss.Update{From: node, Routing: rt, Pricing: pt}
		for _, d := range all {
			check := func(hook string, got fpss.RoutingTable) {
				t.Helper()
				hooks++
				for j := range max(len(rt), len(got)) {
					_, was := rt.Get(graph.NodeID(j))
					_, is := got.Get(graph.NodeID(j))
					if was != is || !was && j < len(got) && got[j].Cost != 0 {
						t.Errorf("%s at node %d: %s changed absent slot %d: %+v", d.Name(), node, hook, j, got[j])
					}
				}
			}
			ctx := Ctx{Graph: g, Node: node}
			var strategies []*fpss.Strategy
			if d.protocol != nil {
				strategies = append(strategies, d.protocol(ctx))
			}
			if d.checker != nil {
				if st := d.checker(ctx); st != nil {
					strategies = append(strategies, &st.Protocol)
					for _, v := range g.Neighbors(node) {
						if st.ForwardToChecker == nil {
							break
						}
						if fc, ok := st.ForwardToChecker(v, faithful.ForwardCopy{Principal: node, From: node, U: update}); ok {
							check("ForwardToChecker", fc.U.Routing)
						}
					}
				}
			}
			for _, st := range strategies {
				if st == nil {
					continue
				}
				if st.PostRouting != nil {
					// Post hooks are handed fresh tables they may edit.
					check("PostRouting", st.PostRouting(slices.Clone(rt)))
				}
				for _, v := range g.Neighbors(node) {
					if st.SendUpdate == nil {
						break
					}
					if u, ok := st.SendUpdate(v, update); ok {
						check("SendUpdate", u.Routing)
					}
				}
			}
		}
	}
	if hooks == 0 {
		t.Fatal("no catalogued table rewrite was applied")
	}
}
