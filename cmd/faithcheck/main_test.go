package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

func TestRunRandomScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full deviation search")
	}
	if err := run([]string{"-n", "4", "-seed", "2"}, io.Discard); err != nil {
		t.Fatalf("faithcheck: %v", err)
	}
}

func TestRunScenarioFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("full deviation search")
	}
	if err := run([]string{"-topology", "twotier", "-n", "6", "-workload", "hotspot", "-costs", "uniform", "-seed", "3"}, io.Discard); err != nil {
		t.Fatalf("faithcheck: %v", err)
	}
}

func TestRunChurnScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-epoch deviation search")
	}
	if err := run([]string{"-n", "5", "-seed", "2", "-epochs", "2", "-joins", "1", "-leaves", "1"}, io.Discard); err != nil {
		t.Fatalf("faithcheck -epochs: %v", err)
	}
}

func TestRunLossScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full deviation search")
	}
	if err := run([]string{"-n", "4", "-seed", "2", "-loss", "0.1", "-burst", "3"}, io.Discard); err != nil {
		t.Fatalf("faithcheck -loss: %v", err)
	}
}

func TestRunLossChurnScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-epoch deviation search")
	}
	if err := run([]string{"-n", "5", "-seed", "2", "-epochs", "2", "-loss", "0.1"}, io.Discard); err != nil {
		t.Fatalf("faithcheck -epochs -loss: %v", err)
	}
}

func TestRunShardScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full deviation search")
	}
	if err := run([]string{"-n", "4", "-seed", "2", "-shards", "2", "-crash", "participant"}, io.Discard); err != nil {
		t.Fatalf("faithcheck -shards: %v", err)
	}
}

func TestRunShardChurnScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-epoch deviation search")
	}
	if err := run([]string{"-n", "5", "-seed", "2", "-epochs", "2", "-shards", "2"}, io.Discard); err != nil {
		t.Fatalf("faithcheck -epochs -shards: %v", err)
	}
}

func TestRunSuiteList(t *testing.T) {
	if err := run([]string{"-suite", "list"}, io.Discard); err != nil {
		t.Fatalf("faithcheck -suite list: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
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
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v should error", args)
		}
	}
}

func TestRunChurnStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-epoch deviation search")
	}
	if err := run([]string{"-n", "5", "-seed", "2", "-epochs", "2", "-stats"}, io.Discard); err != nil {
		t.Fatalf("faithcheck -stats: %v", err)
	}
	// Each epoch's central solve is shared by both variants, so it is
	// charged to neither: a boundary that allocates as much as the
	// solve has paid for it.
	sp := scenario.Spec{Family: scenario.Random, N: 6, Seed: 1, Churn: scenario.Churn{Epochs: 3, Joins: 1, Leaves: 1, RedrawFraction: 0.25}}
	var stats costStats
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

// figure1Honest is what -stats prints for Figure 1's honest runs:
// both protocols' construction counters, every node's converged
// DATA2/DATA3* and the honest utilities.
const figure1Honest = `
honest runs: n=6, edges=7, diameter=3
plain FPSS: phase 1: 84 msgs; phase 2 (cumulative): 176 msgs, 737 bytes
extended (faithful) FPSS: construction: 306 msgs, 2024 bytes; green-lit: true
node A:
  →B cost=7 path=A-X-D-B prices{D:94 X:99}
  →C cost=7 path=A-X-D-C prices{D:94 X:99}
  →D cost=6 path=A-X-D prices{X:101}
  →X cost=0 path=A-X
  →Z cost=0 path=A-Z
node B:
  →A cost=7 path=B-D-X-A prices{D:94 X:99}
  →C cost=1 path=B-D-C prices{D:100}
  →D cost=0 path=B-D
  →X cost=1 path=B-D-X prices{D:105}
  →Z cost=0 path=B-Z
node C:
  →A cost=7 path=C-D-X-A prices{D:94 X:99}
  →B cost=1 path=C-D-B prices{D:100}
  →D cost=0 path=C-D
  →X cost=1 path=C-D-X prices{D:105}
  →Z cost=0 path=C-Z
node D:
  →A cost=6 path=D-X-A prices{X:101}
  →B cost=0 path=D-B
  →C cost=0 path=D-C
  →X cost=0 path=D-X
  →Z cost=1 path=D-C-Z prices{C:11}
node X:
  →A cost=0 path=X-A
  →B cost=1 path=X-D-B prices{D:105}
  →C cost=1 path=X-D-C prices{D:105}
  →D cost=0 path=X-D
  →Z cost=2 path=X-D-C-Z prices{C:4 D:4}
node Z:
  →A cost=0 path=Z-A
  →B cost=0 path=Z-B
  →C cost=0 path=Z-C
  →D cost=1 path=Z-C-D prices{C:11}
  →X cost=2 path=Z-C-D-X prices{C:4 D:4}
utilities:
  A: 49513
  B: 49602
  C: 49628
  D: 50880
  X: 50344
  Z: 49981
`

// TestRunStatsFigure1 pins the static -stats report on Figure 1: one
// sweep-cost line per variant, then the honest runs verbatim.
func TestRunStatsFigure1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-stats", "-workers", "1"}, &out); err != nil {
		t.Fatalf("faithcheck -stats: %v", err)
	}
	got := out.String()
	if n := strings.Count(got, "  deviation sweep:  "); n != 2 {
		t.Errorf("%d deviation-sweep lines, want one per variant:\n%s", n, got)
	}
	if !strings.HasSuffix(got, figure1Honest) {
		t.Errorf("honest runs differ; got:\n%s\nwant suffix:%s", got, figure1Honest)
	}
}
