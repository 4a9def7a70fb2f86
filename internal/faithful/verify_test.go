package faithful_test

import (
	"math/rand"
	"testing"

	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/rational"
	"repro/internal/sim"
)

// TestMirrorChecksMatchComputeTables pins the checkpoint's verifier
// against ComputeTables over the grid rational's TestReplaysPinned
// replays: every node × catalogue deviation, and the honest run, of the
// faithful system on Figure 1 and eight seeded n=6 random biconnected
// graphs, each over reliable links and at loss 0.1 with bursts of 3.
// Plays go through FaithfulSystem.Play, so an execution- or
// settlement-only deviation, whose construction is the honest run's,
// is checked once, in the snapshot. For every checker's mirror, the
// verdict must be whether the advertisement is Equal to ComputeTables
// over the checker's own views and DATA1, and the reported mirror
// hashes must be those of ComputeTables' tables.
func TestMirrorChecksMatchComputeTables(t *testing.T) {
	var checks, mismatches int
	defer faithful.OnMirrorCheck(func(c faithful.MirrorCheck) {
		checks++
		wantR, wantP := fpss.ComputeTables(new(fpss.ComputeScratch), c.Principal, c.Neighbors, c.Costs, c.Views)
		want := c.Advertised && c.Advert.Routing.Equal(wantR) && c.Advert.Pricing.Equal(wantP)
		if c.Matches != want {
			t.Errorf("checker %d of %d: verdict matches=%v, ComputeTables says %v", c.Checker, c.Principal, c.Matches, want)
		}
		if !want {
			mismatches++
		}
		if c.RoutingHash != wantR.HashRouting() || c.PricingHash != wantP.HashPricing() {
			t.Errorf("checker %d of %d: reported mirror hashes are not ComputeTables'", c.Checker, c.Principal)
		}
	})()
	rng := rand.New(rand.NewSource(32))
	for trial := range 9 {
		g := graph.Figure1()
		if trial > 0 {
			var err error
			if g, err = graph.RandomBiconnected(6, rng.Intn(4), 8, rng); err != nil {
				t.Fatal(err)
			}
		}
		for _, loss := range []sim.LossModel{{}, {Rate: 0.1, Burst: 3, Seed: uint64(trial)}} {
			p := rational.DefaultParams(g)
			p.Loss = loss
			_, sys := rational.Systems(g, p)
			st, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, node := range sys.Nodes() {
				for _, dev := range sys.Deviations(node) {
					if _, err := sys.Play(nil, st, node, dev); err != nil {
						t.Fatalf("trial %d %v: %s at %d: %v", trial, loss, dev.Name(), node, err)
					}
				}
			}
		}
	}
	if checks == 0 || mismatches == 0 {
		t.Fatalf("%d checks, %d of them mismatches: the grid must exercise both verdicts", checks, mismatches)
	}
	t.Logf("%d mirror checks, %d mismatches", checks, mismatches)
}
