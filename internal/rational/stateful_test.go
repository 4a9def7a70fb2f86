package rational

import (
	"fmt"
	"hash/fnv"
	"io"
	"iter"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/sim"
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

// pinnedReplayDigest is replayDigest's value. TestPinnedPlayOutcomes
// pins what a play returns; this pins what a replay does on the way:
// message counts, verdicts and every converged table. A change that
// claims to leave replays alone must leave it as it is.
const pinnedReplayDigest uint64 = 0x9d53e6e72d1ce664

// replayDigest hashes every full replay of replayGrid: per run, its
// label and outcome line and every node's routing and pricing hashes.
func replayDigest(t *testing.T) uint64 {
	t.Helper()
	h := fnv.New64a()
	for r := range replayGrid(t) {
		fmt.Fprintf(h, "%s %s\n", r.label, r.outcome)
		for id := range r.nodes {
			hashTables(h, r.nodes[id].RoutingView(), r.nodes[id].PricingView())
		}
	}
	return h.Sum64()
}

// gridReplay is one full replay of replayGrid.
type gridReplay struct {
	// label names the run: trial, link model, variant, deviator and
	// deviation.
	label    string
	deviator core.NodeID
	// outcome holds the construction counters, and in the faithful
	// variant the completion flag and the detections with their reasons.
	outcome string
	// nodes holds every node's protocol state, indexed by ID.
	nodes []*fpss.Node
}

// replayGrid yields every full replay that play runs over every node ×
// catalogue deviation, and the honest run, of both systems on Figure 1
// and eight seeded n=6 random biconnected graphs, each over reliable
// links and at loss 0.1 with bursts of 3. Each replay is released, as
// play releases it, once the consumer returns from it, so later
// replays draw the storage it recycles: a consumer reads a replay only
// before the next one starts.
func replayGrid(t *testing.T) iter.Seq[gridReplay] {
	t.Helper()
	return func(yield func(gridReplay) bool) {
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
				p := DefaultParams(g)
				p.Loss = loss
				plain, faithful := Systems(g, p)
				for deviator, d := range replays(plain) {
					res, err := plain.replay(deviator, d)
					if err != nil {
						t.Fatal(err)
					}
					r := gridReplay{
						label:    fmt.Sprintf("%d %v plain %d %s", trial, loss, deviator, replayName(d)),
						deviator: deviator,
						outcome:  fmt.Sprintf("%+v %+v", res.Phase1, res.Phase2),
					}
					for id := range g.N() {
						r.nodes = append(r.nodes, res.Nodes[graph.NodeID(id)])
					}
					more := yield(r)
					res.Release()
					if !more {
						return
					}
				}
				for deviator, d := range replays(faithful) {
					res, err := faithful.replay(deviator, d)
					if err != nil {
						t.Fatal(err)
					}
					r := gridReplay{
						label:    fmt.Sprintf("%d %v faithful %d %s", trial, loss, deviator, replayName(d)),
						deviator: deviator,
						outcome:  fmt.Sprintf("%+v %v %+v", res.Construction, res.Completed, res.Detections),
					}
					for id := range g.N() {
						r.nodes = append(r.nodes, &res.Nodes[graph.NodeID(id)].Node)
					}
					more := yield(r)
					res.Release()
					if !more {
						return
					}
				}
			}
		}
	}
}

// replays yields the honest run, as deviator -1 and a nil deviation,
// then every node × catalogue deviation of sys.
func replays(sys core.System) iter.Seq2[core.NodeID, *Deviation] {
	return func(yield func(core.NodeID, *Deviation) bool) {
		if !yield(-1, nil) {
			return
		}
		for _, node := range sys.Nodes() {
			for _, dev := range sys.Deviations(node) {
				if !yield(node, dev.(*Deviation)) {
					return
				}
			}
		}
	}
}

// replayName names a replay's deviation; nil is the honest run.
func replayName(d *Deviation) string {
	if d == nil {
		return "honest"
	}
	return d.Name()
}

// hashTables writes a node's table hashes to h.
func hashTables(h io.Writer, r fpss.RoutingTable, p fpss.PricingTable) {
	rh, ph := r.HashRouting(), p.HashPricing()
	h.Write(rh[:])
	h.Write(ph[:])
}

// TestReplaysPinned pins replayDigest.
func TestReplaysPinned(t *testing.T) {
	if got := replayDigest(t); got != pinnedReplayDigest {
		t.Fatalf("replay digest = %#016x, pinned %#016x", got, pinnedReplayDigest)
	}
}

// TestHonestPathsLoopFree pins the path vector's loop rule over
// replayGrid: under every catalogue deviation, in both variants and
// over both link models, no honest node's converged route or avoid-k
// witness visits that node twice. The deviator is exempt: its Post
// hooks may write any table.
func TestHonestPathsLoopFree(t *testing.T) {
	for r := range replayGrid(t) {
		for id, node := range r.nodes {
			if core.NodeID(id) == r.deviator {
				continue
			}
			if loop := revisit(graph.NodeID(id), node.RoutingView(), node.PricingView()); loop != "" {
				t.Errorf("%s: %s", r.label, loop)
			}
		}
	}
}

// revisit describes the first route or avoid-k witness in self's
// tables that visits self past its first hop, or returns "".
func revisit(self graph.NodeID, routing fpss.RoutingTable, pricing fpss.PricingTable) string {
	for j, e := range routing.All() {
		if e.Path[1:].Contains(self) {
			return fmt.Sprintf("route to %d revisits %d: %v", j, self, e.Path)
		}
	}
	for j, row := range pricing.All() {
		for _, k := range slices.Sorted(maps.Keys(row)) {
			if w := row[k].Avoid; w[1:].Contains(self) {
				return fmt.Sprintf("avoid-%d witness to %d revisits %d: %v", k, j, self, w)
			}
		}
	}
	return ""
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
