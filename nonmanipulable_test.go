package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestPlainNonManipulableScenario pins the ROADMAP observation that
// the *plain* protocol is not manipulable on every scenario: twotier
// n=6 under hotspot demand with seed 1 admits no profitable deviation
// from the full catalogue, even without checkers or a bank. The
// hotspot workload starves the deviations of profit — the hub is the
// only destination most nodes price, the cluster structure leaves
// little VCG surplus to steal, and misrouting mostly strands the
// deviator's own packets. Suite output tags such scenarios
// "[plain non-manipulable]" (see cmd/faithcheck).
//
// This is a pinned *finding*, not a tautology: if a catalogue change
// makes this scenario manipulable, the ROADMAP study (and the tag
// semantics) must be revisited, not the test silently updated.
func TestPlainNonManipulableScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("deviation search")
	}
	sp := scenario.Spec{Family: scenario.TwoTier, N: 6, Workload: scenario.WorkloadHotspot, Seed: 1}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	plainSys, faithSys := c.Systems()
	plain, err := core.CheckFaithfulnessCfg(plainSys, core.CheckConfig{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Faithful() {
		t.Errorf("plain FPSS on %s became manipulable: %v", sp.Describe(), plain.Violations)
	}
	if plain.Checked == 0 {
		t.Error("no plays checked — catalogue empty?")
	}
	// The extended specification is of course also clean here.
	faith, err := core.CheckFaithfulnessCfg(faithSys, core.CheckConfig{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !faith.Faithful() {
		t.Errorf("extended spec violated on %s: %v", sp.Describe(), faith.Violations)
	}
}
