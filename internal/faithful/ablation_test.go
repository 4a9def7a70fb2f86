package faithful

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bank"
	"repro/internal/fpss"
	"repro/internal/graph"
)

func TestCheckerLimitHonestStillGreenLights(t *testing.T) {
	g := graph.Figure1()
	for _, limit := range []int{1, 2, 3} {
		cfg := baseConfig(g)
		cfg.CheckerLimit = limit
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Errorf("limit %d: honest run not green-lit: %v", limit, res.Detections)
		}
		// Tables still converge to the centralized answer.
		sol, err := fpss.ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		for id, node := range res.Nodes {
			if !node.Routing().Equal(sol.Routing[id]) {
				t.Errorf("limit %d: node %d routing diverged", limit, id)
			}
		}
	}
}

func TestCheckerLimitReducesOverhead(t *testing.T) {
	g := graph.Figure1()
	full := baseConfig(g)
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	limited := baseConfig(g)
	limited.CheckerLimit = 1
	limRes, err := Run(limited)
	if err != nil {
		t.Fatal(err)
	}
	if limRes.Construction.Sent >= fullRes.Construction.Sent {
		t.Errorf("limited checkers should cost fewer messages: full %d, limited %d",
			fullRes.Construction.Sent, limRes.Construction.Sent)
	}
}

func TestCheckerLimitOpensEscape(t *testing.T) {
	// With a single checker per principal, a principal can tamper
	// advertisements sent only to unchecked neighbors and pass the
	// checkpoint — the escape E11 quantifies. We assert the weaker,
	// always-true property: the full assignment detects this deviation
	// while the truncated one may not (and if it completes, tables are
	// corrupted somewhere).
	g := graph.Figure1()
	d, _ := g.ByName("D")
	tamper := &Strategy{
		Protocol: fpss.Strategy{
			SendUpdate: func(to graph.NodeID, u fpss.Update) (fpss.Update, bool) {
				// Tamper toward the highest-ID neighbor only (likely
				// outside a truncated prefix checker set).
				if to == 4 { // X
					u.Routing = slices.Clone(u.Routing) // copy on write: u is published
					for dest, e := range u.Routing {
						e.Cost += 3
						u.Routing[dest] = e
					}
				}
				return u, true
			},
		},
	}
	full := baseConfig(g)
	full.Strategies = map[graph.NodeID]*Strategy{d: tamper}
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if fullRes.Completed {
		t.Error("full assignment must catch selective advert tampering")
	}
	limited := baseConfig(g)
	limited.CheckerLimit = 1
	limited.Strategies = map[graph.NodeID]*Strategy{d: tamper}
	limRes, err := Run(limited)
	if err != nil {
		t.Fatal(err)
	}
	if limRes.Completed {
		// Escape: verify the corruption actually reached X's tables.
		sol, err := fpss.ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := g.ByName("X")
		if limRes.Nodes[x].Routing().Equal(sol.Routing[x]) {
			t.Log("tampering happened to be absorbed; escape not demonstrated on this topology")
		}
	}
}

func TestFailstopBlocksProgress(t *testing.T) {
	g := graph.Figure1()
	c, _ := g.ByName("C")
	cfg := baseConfig(g)
	cfg.Strategies = map[graph.NodeID]*Strategy{c: {SilentFromPhase2: true}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("failstop node should block the green light")
	}
	for id, u := range res.Utilities {
		if u != -NonProgressPenalty {
			t.Errorf("node %d utility = %d, want non-progress penalty", id, u)
		}
	}
}

func TestFailstopStillParticipatesInPhase1(t *testing.T) {
	// The crash hits at the phase-2 boundary; phase-1 flooding still
	// completes, so DATA1 is common — the detection is purely the
	// missing phase-2 state, not a cost divergence.
	g := graph.Figure1()
	z, _ := g.ByName("Z")
	cfg := baseConfig(g)
	cfg.Strategies = map[graph.NodeID]*Strategy{z: {SilentFromPhase2: true}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("should not complete")
	}
	found := false
	for _, det := range res.Detections {
		if det.Principal == -1 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an unattributed missing-report detection: %v", res.Detections)
	}
}

// TestCheckpointFlagsInPrincipalOrder pins the order of the flags a
// checker signs at the checkpoint: with A and C both failstopped, Z
// flags each of them as never advertising, and must list those flags
// by ascending principal in every run, so the signed report is
// reproducible.
func TestCheckpointFlagsInPrincipalOrder(t *testing.T) {
	g := graph.Figure1()
	a, _ := g.ByName("A")
	c, _ := g.ByName("C")
	z, _ := g.ByName("Z")
	want := []bank.Flag{
		{Reporter: z, Principal: a, Reason: "principal never advertised"},
		{Reporter: z, Principal: c, Reason: "principal never advertised"},
	}
	for run := 0; run < 40; run++ {
		var got []bank.Flag
		cfg := baseConfig(g)
		cfg.Strategies = map[graph.NodeID]*Strategy{
			a: {SilentFromPhase2: true},
			c: {SilentFromPhase2: true},
			z: {ReportState: func(truth bank.StateReport) bank.StateReport {
				got = truth.Flags
				return truth
			}},
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: Z's checkpoint flags = %v, want %v", run, got, want)
		}
	}
}

func BenchmarkFaithfulConstructionFigure1(b *testing.B) {
	g := graph.Figure1()
	cfg := baseConfig(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("not green-lit")
		}
	}
}

func BenchmarkFaithfulConstructionRing16(b *testing.B) {
	g, err := graph.RingWithChords(16, 8, 10, benchRNG())
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Graph: g, Traffic: fpss.Traffic{}, DeliveryValue: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }
