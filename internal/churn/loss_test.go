package churn

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// lossyDynamicSpec composes both failure axes: three epochs of churn
// over links dropping 10% of attempts in bursts.
func lossyDynamicSpec() scenario.Spec {
	sp := dynamicSpec()
	sp.Loss = scenario.Loss{Rate: 0.1, Burst: 3}
	return sp
}

// TestLossComposesWithChurn: every epoch of a lossy timeline carries a
// live drop model, epoch 0 replays the static schedule, and later
// epochs are re-salted — fresh drop schedules per epoch, exactly like
// traffic and membership, while rate and burst stay the axis's. Every
// lossy epoch builds its honest state by protocol simulation, and
// every reliable one from its central solve unless pinned to the
// simulation oracle.
func TestLossComposesWithChurn(t *testing.T) {
	sp := lossyDynamicSpec()
	tl := mustBuild(t, sp)
	seen := map[uint64]int{}
	for i, e := range tl.Epochs {
		m := e.Compiled.Params.Loss
		if !m.Enabled() {
			t.Fatalf("epoch %d lost the drop model", i)
		}
		if m.Rate != sp.Loss.Rate || m.Burst != sp.Loss.Burst {
			t.Fatalf("epoch %d model %+v deviates from the axis %+v", i, m, sp.Loss)
		}
		if m != sp.LossModelForEpoch(i) {
			t.Fatalf("epoch %d model not the spec's epoch derivation", i)
		}
		if prev, dup := seen[m.Seed]; dup {
			t.Fatalf("epochs %d and %d share a drop schedule seed", prev, i)
		}
		seen[m.Seed] = i
	}
	if tl.Epochs[0].Compiled.Params.Loss != sp.LossModel() {
		t.Fatal("epoch 0 must replay the static drop schedule")
	}
	// The composed timeline is still a pure function of the Spec.
	again := mustBuild(t, sp)
	for i := range tl.Epochs {
		if tl.Epochs[i].Compiled.Params.Loss != again.Epochs[i].Compiled.Params.Loss {
			t.Fatalf("epoch %d drop model not deterministic", i)
		}
	}
	// A reliable timeline of the same spec carries no model anywhere.
	reliable := mustBuild(t, dynamicSpec())
	for i, e := range reliable.Epochs {
		if e.Compiled.Params.Loss.Enabled() {
			t.Fatalf("reliable epoch %d grew a drop model", i)
		}
	}
	requireModes(t, "lossy", tl, "sim")
	requireModes(t, "reliable", reliable, "central")
	pinned := mustBuild(t, dynamicSpec())
	pinned.simulateOnly()
	requireModes(t, "simulateOnly", pinned, "sim")
}

// requireModes builds every epoch of tl's plain system and requires
// each epoch's BuildStat to name mode.
func requireModes(t *testing.T, label string, tl *Timeline, mode string) {
	t.Helper()
	sys := NewSystem(tl, Plain)
	sys.EnableBuildStats()
	stats, err := sys.BuildStats()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(stats) != len(tl.Epochs) {
		t.Fatalf("%s: %d build stats for %d epochs", label, len(stats), len(tl.Epochs))
	}
	for _, bs := range stats {
		if bs.Mode != mode {
			t.Fatalf("%s: epoch %d built by %q, want %q", label, bs.Epoch, bs.Mode, mode)
		}
	}
}

// TestLossyChurnVerdicts: the composed failure axes end to end — the
// per-epoch deviation search over a lossy timeline keeps the extended
// spec clean and stays byte-identical across worker counts.
func TestLossyChurnVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("per-epoch deviation search")
	}
	tl := mustBuild(t, lossyDynamicSpec())
	seq, err := core.CheckFaithfulnessCfg(NewSystem(tl, Faithful), core.CheckConfig{Workers: 1, PerEpoch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Faithful() {
		t.Fatalf("faithful spec violated under lossy churn: %v", seq.Violations)
	}
	par, err := core.CheckFaithfulnessCfg(NewSystem(mustBuild(t, lossyDynamicSpec()), Faithful),
		core.CheckConfig{Workers: 4, PerEpoch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("lossy churn report differs across worker counts\nseq: %+v\npar: %+v", seq, par)
	}
}
