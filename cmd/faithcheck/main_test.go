package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

func TestRunRandomScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full deviation search")
	}
	if err := run([]string{"-n", "4", "-seed", "2"}); err != nil {
		t.Fatalf("faithcheck: %v", err)
	}
}

func TestRunScenarioFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("full deviation search")
	}
	if err := run([]string{"-topology", "twotier", "-n", "6", "-workload", "hotspot", "-costs", "uniform", "-seed", "3"}); err != nil {
		t.Fatalf("faithcheck: %v", err)
	}
}

func TestRunChurnScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-epoch deviation search")
	}
	if err := run([]string{"-n", "5", "-seed", "2", "-epochs", "2", "-joins", "1", "-leaves", "1"}); err != nil {
		t.Fatalf("faithcheck -epochs: %v", err)
	}
}

func TestRunLossScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full deviation search")
	}
	if err := run([]string{"-n", "4", "-seed", "2", "-loss", "0.1", "-burst", "3"}); err != nil {
		t.Fatalf("faithcheck -loss: %v", err)
	}
}

func TestRunLossChurnScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-epoch deviation search")
	}
	if err := run([]string{"-n", "5", "-seed", "2", "-epochs", "2", "-loss", "0.1"}); err != nil {
		t.Fatalf("faithcheck -epochs -loss: %v", err)
	}
}

func TestRunShardScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full deviation search")
	}
	if err := run([]string{"-n", "4", "-seed", "2", "-shards", "2", "-crash", "participant"}); err != nil {
		t.Fatalf("faithcheck -shards: %v", err)
	}
}

func TestRunShardChurnScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-epoch deviation search")
	}
	if err := run([]string{"-n", "5", "-seed", "2", "-epochs", "2", "-shards", "2"}); err != nil {
		t.Fatalf("faithcheck -epochs -shards: %v", err)
	}
}

func TestRunSuiteList(t *testing.T) {
	if err := run([]string{"-suite", "list"}); err != nil {
		t.Fatalf("faithcheck -suite list: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag should error")
	}
}

func TestRunBadScenario(t *testing.T) {
	cases := [][]string{
		{"-topology", "mobius"},
		{"-topology", "torus", "-n", "7"},
		{"-workload", "flood", "-n", "5"},
		{"-costs", "normal", "-n", "5"},
		{"-suite", "no-such-suite"},
		// Churn flags are single-scenario only; a suite sweep must not
		// silently ignore them.
		{"-suite", "smoke", "-epochs", "3"},
		{"-suite", "churn", "-leaves", "2"},
		// And without -epochs > 1 the other churn flags do nothing —
		// reject rather than run a static check the user thinks is
		// dynamic.
		{"-n", "5", "-joins", "2"},
		// Invalid churn values must error, not silently clamp.
		{"-n", "5", "-epochs", "0"},
		{"-n", "5", "-epochs", "3", "-leaves", "-1"},
		{"-n", "5", "-epochs", "3", "-redraw", "1.5"},
		// Loss flags are single-scenario only; a suite sweep must not
		// silently ignore them either.
		{"-suite", "smoke", "-loss", "0.1"},
		{"-suite", "loss", "-burst", "3"},
		// -burst without -loss does nothing — reject rather than run a
		// reliable check the user thinks is lossy.
		{"-n", "5", "-burst", "3"},
		// Invalid loss values must error, not silently clamp.
		{"-n", "5", "-loss", "1.0"},
		{"-n", "5", "-loss", "-0.1"},
		{"-n", "5", "-loss", "0.1", "-burst", "0.5"},
		// Shard flags are single-scenario only; a suite sweep must not
		// silently ignore them either.
		{"-suite", "smoke", "-shards", "2"},
		{"-suite", "settle", "-crash", "participant"},
		// -crash without -shards does nothing — reject rather than run a
		// singleton-bank check the user thinks is sharded.
		{"-n", "5", "-crash", "participant"},
		// Invalid shard values must error, not silently clamp, and
		// unknown crash plans must be rejected at compile time.
		{"-n", "5", "-shards", "0"},
		{"-n", "5", "-shards", "-2"},
		{"-n", "5", "-shards", "2", "-crash", "meteor"},
		// -stats times epoch boundaries; without a churn timeline there
		// is nothing to time, and for suites the per-scenario knob is
		// -timings.
		{"-stats"},
		{"-n", "5", "-stats"},
		{"-suite", "smoke", "-stats"},
		// -timings is the suite-mode knob.
		{"-timings"},
		{"-n", "5", "-epochs", "2", "-timings"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v should error", args)
		}
	}
}

func TestRunChurnStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-epoch deviation search")
	}
	if err := run([]string{"-n", "5", "-seed", "2", "-epochs", "2", "-stats"}); err != nil {
		t.Fatalf("faithcheck -stats: %v", err)
	}
	// Each epoch's central solve is shared by both variants, so it is
	// charged to neither: a boundary that allocates as much as the
	// solve has paid for it.
	sp := scenario.Spec{Family: scenario.Random, N: 6, Seed: 1, Churn: scenario.Churn{Epochs: 3, Joins: 1, Leaves: 1, RedrawFraction: 0.25}}
	var stats churnStats
	if _, _, _, _, err := churnReports(sp, core.CheckConfig{Workers: 1}, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.solves) != sp.Churn.Epochs {
		t.Fatalf("%d central solves recorded, want one per epoch (%d)", len(stats.solves), sp.Churn.Epochs)
	}
	for v, name := range []string{"plain", "faithful"} {
		build := stats.variants[v].build
		if len(build) != len(stats.solves) {
			t.Fatalf("%s: %d boundary records for %d epochs", name, len(build), len(stats.solves))
		}
		for i, bs := range build {
			if solve := stats.solves[i]; bs.Mode != "central" || bs.Allocs >= solve.allocs {
				t.Errorf("%s epoch %d: boundary (mode %s) allocates %d, its central solve %d", name, i+1, bs.Mode, bs.Allocs, solve.allocs)
			}
		}
	}
}

// TestRunProfileTier drives the honest-profiling rungs directly with a
// small ad-hoc suite (the registered internet tier's n∈{48,100} rungs
// belong to the nightly lane, not the unit tests).
func TestRunProfileTier(t *testing.T) {
	s := scenario.Suite{
		Name:         "profile-test",
		Families:     []scenario.Family{scenario.PrefAttach, scenario.Waxman},
		Sizes:        []int{6},
		Workloads:    []scenario.Workload{scenario.WorkloadAllPairs},
		CostModels:   []scenario.CostModel{scenario.CostUniform},
		ProfileSizes: []int{12, 16},
	}
	if err := runProfileTier(s, 1, true); err != nil {
		t.Fatalf("runProfileTier: %v", err)
	}
	// No profiling tier: a silent no-op.
	s.ProfileSizes = nil
	if err := runProfileTier(s, 1, false); err != nil {
		t.Fatalf("runProfileTier (empty): %v", err)
	}
}
