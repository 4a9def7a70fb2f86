package rational

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/graph"
)

// replayOracle is the one reference the snapshot/overlay machinery
// must match byte for byte: its snapshot is an honest protocol run,
// and every play — exec-only and settle-only ones included — replays
// the whole protocol through play, with no overlay. Embedding only
// core.System hides the Bounder, so the oracle never prunes. Drive it
// through oracleCheck.
type replayOracle struct {
	core.System
	play func(core.NodeID, *Deviation) (core.Outcome, error)
}

// replayState is the oracle's snapshot: the honest run's outcome.
type replayState struct{ base core.Outcome }

func (st replayState) Baseline() core.Outcome { return st.base }

func (o replayOracle) Snapshot() (core.TruthfulState, error) {
	base, err := o.play(-1, nil)
	if err != nil {
		return nil, err
	}
	return replayState{base}, nil
}

func (o replayOracle) Play(_ *core.PlayContext, _ core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	d, ok := dev.(*Deviation)
	if !ok {
		return core.Outcome{}, fmt.Errorf("rational: foreign deviation %q", dev.Name())
	}
	return o.play(deviator, d)
}

// oracleCheck runs the sequential search over sys's scenario with the
// replay oracle standing in for sys's own Snapshot and Play.
func oracleCheck(t *testing.T, sys core.System) core.Report {
	t.Helper()
	o := replayOracle{System: sys}
	switch s := sys.(type) {
	case *PlainSystem:
		o.play = s.play
	case *FaithfulSystem:
		o.play = s.play
	default:
		t.Fatalf("no replay oracle for %T", sys)
	}
	rep, err := core.CheckFaithfulnessCfg(o, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStatefulCheckMatchesRunOracle is the overhaul's acceptance gate:
// over 100+ seeded scenarios the snapshot/COW engine — exec-only
// overlays, and profit-bound pruning with every pruned play replayed
// and re-verified — must reproduce the replay oracle exactly, across
// worker counts 1, 2, 4 and 8. Run under -race, the shared snapshots
// are also certified race-free.
func TestStatefulCheckMatchesRunOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential deviation search over 100 graphs is the full lane")
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 104; trial++ {
		var g *graph.Graph
		var err error
		if trial == 0 {
			g = graph.Figure1()
		} else {
			g, err = graph.RandomBiconnected(4+rng.Intn(3), rng.Intn(4), 8, rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		params := DefaultParams(g)
		if trial%3 == 1 {
			params.Scheme = fpss.SchemeDeclaredCost
		}
		oracle := oracleCheck(t, &PlainSystem{Graph: g, Params: params})

		// Pooled + COW, no pruning: the whole Report must match.
		workers := []int{1, 2, 4, 8}[trial%4]
		sys := &PlainSystem{Graph: g, Params: params}
		got, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, got) {
			t.Fatalf("trial %d workers %d: stateful report diverges\noracle: %+v\ngot:    %+v", trial, workers, oracle, got)
		}

		// With pruning: identical violations, full-grid accounting, and
		// every pruned play replayed against the bound (stride 1).
		pruned, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{
			Workers:      workers,
			Prune:        true,
			VerifyPruned: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle.Violations, pruned.Violations) {
			t.Fatalf("trial %d: pruned violations diverge\noracle: %+v\ngot:    %+v", trial, oracle.Violations, pruned.Violations)
		}
		if pruned.Total() != oracle.Checked {
			t.Fatalf("trial %d: pruned grid %d+%d != oracle grid %d", trial, pruned.Checked, pruned.Pruned, oracle.Checked)
		}
	}
}

// TestFaithfulStatefulMatchesRunOracle is the faithful-side
// differential: the certified snapshot's exec-only overlay (including
// the payment re-audit) and the base-utility prune bound must agree
// with the replay oracle, and the extended specification must stay
// faithful. The faithful catalogue is where pruning actually fires, so
// the accounting is asserted to be non-trivial.
func TestFaithfulStatefulMatchesRunOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("faithful differential deviation search is the full lane")
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		var g *graph.Graph
		var err error
		if trial == 0 {
			g = graph.Figure1()
		} else {
			g, err = graph.RandomBiconnected(4+rng.Intn(2), rng.Intn(3), 8, rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		params := DefaultParams(g)
		oracle := oracleCheck(t, &FaithfulSystem{Graph: g, Params: params})
		if !oracle.Faithful() {
			t.Fatalf("trial %d: extended FPSS should stay faithful; violations %v", trial, oracle.Violations)
		}
		sys := &FaithfulSystem{Graph: g, Params: params}
		got, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, got) {
			t.Fatalf("trial %d: faithful stateful report diverges\noracle: %+v\ngot:    %+v", trial, oracle, got)
		}
		pruned, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{
			Workers:      4,
			Prune:        true,
			VerifyPruned: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle.Violations, pruned.Violations) {
			t.Fatalf("trial %d: pruned faithful violations diverge", trial)
		}
		if pruned.Total() != oracle.Checked {
			t.Fatalf("trial %d: pruned grid %d+%d != oracle grid %d", trial, pruned.Checked, pruned.Pruned, oracle.Checked)
		}
		if pruned.Pruned == 0 {
			t.Fatalf("trial %d: expected the faithful exec-only bound to prune some plays", trial)
		}
	}
}

// lyingBound is a deliberately wrong Bounder: it claims no play can
// beat the deviator's baseline.
type lyingBound struct{ *PlainSystem }

func (l lyingBound) ProfitUpperBound(deviator core.NodeID, _ core.Deviation) (int64, bool) {
	st, err := l.Snapshot()
	if err != nil {
		return 0, false
	}
	return st.Baseline().Utilities[deviator], true // "nothing ever profits"
}

// TestUnsoundPruneBoundCaught: a deliberately wrong upper bound — one
// that claims every play is unprofitable — must be caught by the
// VerifyPruned replay on plain FPSS, where underreports genuinely
// profit. Without verification the same bound silently skips the
// violations, which is exactly why the debug replay exists.
func TestUnsoundPruneBoundCaught(t *testing.T) {
	g := graph.Figure1()
	sys := &PlainSystem{Graph: g, Params: DefaultParams(g)}
	_, err := core.CheckFaithfulnessCfg(lyingBound{sys}, core.CheckConfig{
		Prune:        true,
		VerifyPruned: true,
	})
	if err == nil {
		t.Fatal("unsound bound on a manipulable system must fail verification")
	}
	if !strings.Contains(err.Error(), "unsound prune bound") {
		t.Fatalf("unexpected verification error: %v", err)
	}

	// The system's own bound survives the same full-replay audit.
	if _, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{
		Prune:        true,
		VerifyPruned: true,
	}); err != nil {
		t.Fatalf("self bound failed verification: %v", err)
	}
}

// TestPrunedAccounting: Checked + Pruned must always equal the full
// grid, and the plain system must never prune its own profitable
// underreports (their bound exceeds the baseline exactly when the
// deviator owes anyone money).
func TestPrunedAccounting(t *testing.T) {
	g := graph.Figure1()
	params := DefaultParams(g)
	full, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Pruned != 0 || full.Total() != full.Checked {
		t.Fatalf("unpruned report miscounts: %+v", full)
	}
	pruned, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{
		Prune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Total() != full.Checked {
		t.Fatalf("pruned grid %d+%d != full grid %d", pruned.Checked, pruned.Pruned, full.Checked)
	}
	if !reflect.DeepEqual(full.Violations, pruned.Violations) {
		t.Fatalf("pruning changed the verdict: %+v vs %+v", full.Violations, pruned.Violations)
	}
}

// TestPlayOutcomeBelongsToCaller plays two deviations on one context
// and requires the first outcome to survive the second play: a
// returned Outcome is the caller's, not scratch the next play reuses.
// The first play is an execution-only overlay, the second a full
// replay.
func TestPlayOutcomeBelongsToCaller(t *testing.T) {
	g := graph.Figure1()
	plain, faithful := Systems(g, DefaultParams(g))
	for _, tc := range []struct {
		name string
		sys  core.System
	}{{"plain", plain}, {"faithful", faithful}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys
			st, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ctx := core.NewPlayContext(0)
			first, err := sys.Play(ctx, st, 0, findDeviation(t, sys, "underreport-payments-all"))
			if err != nil {
				t.Fatal(err)
			}
			kept := maps.Clone(first.Utilities)
			second, err := sys.Play(ctx, st, 2, findDeviation(t, sys, "drop-adverts"))
			if err != nil {
				t.Fatal(err)
			}
			if maps.Equal(kept, second.Utilities) {
				t.Fatal("both plays have the same utilities; the test cannot tell them apart")
			}
			if !maps.Equal(first.Utilities, kept) {
				t.Fatalf("first outcome changed by the second play:\nwas %v\nnow %v", kept, first.Utilities)
			}
		})
	}
}
