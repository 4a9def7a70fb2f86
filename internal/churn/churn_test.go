package churn

import (
	"reflect"
	"testing"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scenario"
)

func dynamicSpec() scenario.Spec {
	return scenario.Spec{Family: scenario.Random, N: 6, Seed: 1,
		Churn: scenario.Churn{Epochs: 3, Joins: 1, Leaves: 1, RedrawFraction: 0.25}}
}

func mustBuild(t *testing.T, sp scenario.Spec) *Timeline {
	t.Helper()
	tl, err := Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// graphEqual compares topology and costs.
func graphEqual(a, b *graph.Graph) bool {
	return a.N() == b.N() &&
		reflect.DeepEqual(a.Edges(), b.Edges()) &&
		reflect.DeepEqual(a.Costs(), b.Costs())
}

// TestBuildDeterministic: the timeline is a pure function of the Spec.
func TestBuildDeterministic(t *testing.T) {
	a := mustBuild(t, dynamicSpec())
	b := mustBuild(t, dynamicSpec())
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		if !reflect.DeepEqual(a.Epochs[i].Members, b.Epochs[i].Members) {
			t.Fatalf("epoch %d membership differs", i)
		}
		if !graphEqual(a.Epochs[i].Compiled.Graph, b.Epochs[i].Compiled.Graph) {
			t.Fatalf("epoch %d graph differs", i)
		}
		if !reflect.DeepEqual(a.Epochs[i].Compiled.Params.Traffic, b.Epochs[i].Compiled.Params.Traffic) {
			t.Fatalf("epoch %d traffic differs", i)
		}
	}
	// A different seed must give a different schedule (with these
	// rates, some membership or edge set diverges by the last epoch).
	sp := dynamicSpec()
	sp.Seed = 2
	c := mustBuild(t, sp)
	same := true
	for i := range a.Epochs {
		if !reflect.DeepEqual(a.Epochs[i].Members, c.Epochs[i].Members) ||
			!graphEqual(a.Epochs[i].Compiled.Graph, c.Epochs[i].Compiled.Graph) {
			same = false
		}
	}
	if same {
		t.Fatal("timelines for different seeds are identical")
	}
}

// TestEpochOneEqualsStatic: a one-epoch timeline is byte-identical to
// the static compilation — the churn engine is a strict superset of
// the static pipeline, not a parallel one.
func TestEpochOneEqualsStatic(t *testing.T) {
	sp := scenario.Spec{Family: scenario.TwoTier, N: 6, Workload: scenario.WorkloadHotspot, Seed: 1}
	static, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sp.Churn = scenario.Churn{Epochs: 1}
	tl := mustBuild(t, sp)
	if len(tl.Epochs) != 1 {
		t.Fatalf("expected 1 epoch, got %d", len(tl.Epochs))
	}
	if !graphEqual(tl.Epochs[0].Compiled.Graph, static.Graph) {
		t.Fatal("epoch-0 graph differs from static compilation")
	}
	if !reflect.DeepEqual(tl.Epochs[0].Compiled.Params, static.Params) {
		t.Fatal("epoch-0 params differ from static compilation")
	}
}

// TestEpochOneCheckEqualsStatic: running the churn system on a
// one-epoch timeline reproduces the static CheckFaithfulness report
// play for play (modulo the boundary deviations, which cannot exist
// without a boundary — the catalogue must collapse to the static one).
func TestEpochOneCheckEqualsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("deviation search")
	}
	sp := scenario.Spec{Family: scenario.Random, N: 5, Seed: 3}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	plainSys, faithSys := c.Systems()
	sp.Churn = scenario.Churn{Epochs: 1}
	tl := mustBuild(t, sp)

	for _, tc := range []struct {
		variant Variant
		static  core.System
	}{{Plain, plainSys}, {Faithful, faithSys}} {
		want, err := core.CheckFaithfulnessCfg(tc.static, core.CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.CheckFaithfulnessCfg(NewSystem(tl, tc.variant), core.CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Checked != want.Checked {
			t.Errorf("%v: checked %d plays, static checked %d", tc.variant, got.Checked, want.Checked)
		}
		if len(got.Violations) != len(want.Violations) {
			t.Fatalf("%v: %d violations vs static %d", tc.variant, len(got.Violations), len(want.Violations))
		}
		for i := range got.Violations {
			g, w := got.Violations[i], want.Violations[i]
			if g.Node != w.Node || g.Deviation != w.Deviation || g.Baseline != w.Baseline || g.Deviant != w.Deviant {
				t.Errorf("%v: violation %d differs: %v vs %v", tc.variant, i, g, w)
			}
		}
	}
}

// TestTimelineValidity: every epoch's graph is biconnected (the FPSS
// standing assumption survives churn via RepairBiconnected), the
// population respects the floor, and boundary bookkeeping matches the
// membership deltas.
func TestTimelineValidity(t *testing.T) {
	sp := scenario.Spec{Family: scenario.PrefAttach, N: 8, Seed: 5,
		Churn: scenario.Churn{Epochs: 5, Joins: 2, Leaves: 3, RedrawFraction: 0.5}}
	tl := mustBuild(t, sp)
	if len(tl.Epochs) != 5 {
		t.Fatalf("expected 5 epochs, got %d", len(tl.Epochs))
	}
	for i, e := range tl.Epochs {
		if !e.Compiled.Graph.IsBiconnected() {
			t.Errorf("epoch %d graph not biconnected", i)
		}
		if e.N() < 4 {
			t.Errorf("epoch %d population %d below floor", i, e.N())
		}
		if i == 0 {
			continue
		}
		prev := tl.Epochs[i-1]
		for _, id := range e.Joined {
			if _, was := prev.Local(id); was {
				t.Errorf("epoch %d: joiner %d already a member", i, id)
			}
			if _, is := e.Local(id); !is {
				t.Errorf("epoch %d: joiner %d not a member", i, id)
			}
		}
		for _, id := range e.Left {
			if _, was := prev.Local(id); !was {
				t.Errorf("epoch %d: leaver %d was not a member", i, id)
			}
			if _, is := e.Local(id); is {
				t.Errorf("epoch %d: leaver %d still a member", i, id)
			}
		}
		if want := prev.N() - len(e.Left) + len(e.Joined); e.N() != want {
			t.Errorf("epoch %d population %d, want %d", i, e.N(), want)
		}
	}
	// Identities are never reused.
	seenJoin := make(map[Identity]int)
	for _, e := range tl.Epochs {
		for _, id := range e.Joined {
			if first, dup := seenJoin[id]; dup {
				t.Errorf("identity %d joined twice (epochs %d and %d)", id, first, e.Index)
			}
			seenJoin[id] = e.Index
		}
	}
}

// TestBoundaryDeviationCatalogue: the three churn deviations appear
// exactly where the schedule makes them meaningful.
func TestBoundaryDeviationCatalogue(t *testing.T) {
	tl := mustBuild(t, dynamicSpec())
	sys := NewSystem(tl, Plain)
	names := func(id Identity) map[string][]int {
		out := make(map[string][]int)
		for _, d := range sys.Deviations(core.NodeID(id)) {
			out[d.Name()] = sys.EpochsOf(core.NodeID(id), d)
		}
		return out
	}
	var leaver, stayer Identity = -1, -1
	for _, id := range tl.Identities() {
		if _, leaves := tl.DepartureOf(id); leaves {
			if leaver < 0 {
				leaver = id
			}
		} else if len(tl.MemberEpochs(id)) == len(tl.Epochs) {
			stayer = id
		}
	}
	if leaver < 0 || stayer < 0 {
		t.Fatalf("schedule has no leaver/stayer pair (leaver=%d stayer=%d)", leaver, stayer)
	}
	ln := names(leaver)
	boundary, _ := tl.DepartureOf(leaver)
	if got, ok := ln["leave-without-settling"]; !ok {
		t.Error("leaver has no leave-without-settling deviation")
	} else if !reflect.DeepEqual(got, []int{boundary - 1}) {
		t.Errorf("leave-without-settling active in %v, want [%d]", got, boundary-1)
	}
	sn := names(stayer)
	if _, ok := sn["leave-without-settling"]; ok {
		t.Error("stayer offered leave-without-settling")
	}
	if _, ok := sn["rejoin-fresh-identity"]; ok {
		t.Error("stayer offered rejoin-fresh-identity")
	}
	if got, ok := sn["stale-catalogue-adverts"]; !ok {
		t.Error("stayer has no stale-catalogue-adverts deviation")
	} else if got[0] == 0 {
		t.Errorf("stale catalogue cannot be active in epoch 0: %v", got)
	}
	// Static deviations ride along for every member epoch.
	if got := sn["misreport-cost-inflate"]; len(got) != len(tl.Epochs) {
		t.Errorf("static deviation active in %v, want every epoch", got)
	}
}

// TestLedgerCarryForward: the honest timeline's ledger settles exactly
// the departed identities, and the book's total equals the summed
// baseline utilities.
func TestLedgerCarryForward(t *testing.T) {
	tl := mustBuild(t, dynamicSpec())
	sys := NewSystem(tl, Plain)
	l, err := sys.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base := st.Baseline()
	var fromLedger, fromBaseline int64
	for _, id := range tl.Identities() {
		if l.Balance(bank.Account(id)) != base.Utilities[core.NodeID(id)] {
			t.Errorf("identity %d: ledger %d, baseline %d", id, l.Balance(bank.Account(id)), base.Utilities[core.NodeID(id)])
		}
		fromLedger += l.Balance(bank.Account(id))
		fromBaseline += base.Utilities[core.NodeID(id)]
		_, leaves := tl.DepartureOf(id)
		if got := l.Settled(bank.Account(id)); got != leaves {
			t.Errorf("identity %d: settled=%v, leaves=%v", id, got, leaves)
		}
	}
	if fromLedger != fromBaseline {
		t.Errorf("ledger total %d != baseline total %d", fromLedger, fromBaseline)
	}
	if len(l.Accounts()) != len(tl.Identities()) {
		t.Errorf("%d accounts, want %d", len(l.Accounts()), len(tl.Identities()))
	}
}

// TestChurnVerdicts is the headline: across a dynamic timeline the
// plain protocol admits profitable deviations (including the boundary
// exploits) while the extended specification stays clean on every
// epoch.
func TestChurnVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("deviation search")
	}
	tl := mustBuild(t, dynamicSpec())
	plain, err := core.CheckFaithfulnessCfg(NewSystem(tl, Plain), core.CheckConfig{PerEpoch: true, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Violations) == 0 {
		t.Error("plain FPSS admitted no profitable deviation under churn")
	}
	byName := make(map[string]bool)
	epochsSeen := make(map[int]bool)
	for _, v := range plain.Violations {
		byName[v.Deviation] = true
		epochsSeen[v.Epoch] = true
		if v.Epoch < 1 || v.Epoch > len(tl.Epochs) {
			t.Errorf("violation epoch %d out of range: %v", v.Epoch, v)
		}
	}
	for _, want := range []string{"leave-without-settling", "rejoin-fresh-identity"} {
		if !byName[want] {
			t.Errorf("expected a profitable %q against plain FPSS", want)
		}
	}
	faith, err := core.CheckFaithfulnessCfg(NewSystem(tl, Faithful), core.CheckConfig{PerEpoch: true, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !faith.Faithful() {
		t.Errorf("extended specification violated under churn: %v", faith.Violations)
	}
	if faith.Checked <= plain.Checked {
		t.Errorf("faithful grid (%d plays) should exceed plain grid (%d): checker deviations add plays", faith.Checked, plain.Checked)
	}
}

// TestPerEpochSubsumesWholeRun: every whole-run violation has a
// per-epoch witness — if a deviation profits when active in all its
// epochs, pinning it to its best epoch profits too (utilities are
// separable across epochs for the per-epoch catalogue).
func TestPerEpochSubsumesWholeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("deviation search")
	}
	tl := mustBuild(t, dynamicSpec())
	sys := NewSystem(tl, Plain)
	whole, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	per, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{PerEpoch: true, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	witness := make(map[[2]string]bool)
	for _, v := range per.Violations {
		witness[[2]string{string(rune(v.Node)), v.Deviation}] = true
	}
	for _, v := range whole.Violations {
		if !witness[[2]string{string(rune(v.Node)), v.Deviation}] {
			t.Errorf("whole-run violation %v has no per-epoch witness", v)
		}
	}
}

// TestForeignDeviationRejected: a deviation from another System is an
// error, not a silent no-op.
func TestForeignDeviationRejected(t *testing.T) {
	tl := mustBuild(t, dynamicSpec())
	sys := NewSystem(tl, Plain)
	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Play(nil, st, 0, core.BasicDeviation{DevName: "alien"}); err == nil {
		t.Fatal("foreign deviation accepted")
	}
	if _, err := sys.PlayEpoch(nil, st, 0, sys.Deviations(0)[0], 99); err == nil {
		t.Fatal("out-of-range epoch accepted")
	}
}
