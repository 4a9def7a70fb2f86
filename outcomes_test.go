package repro_test

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"slices"
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/scenario"
)

// pinnedOutcomes holds one digest per spec of outcomeSpecs: the
// baseline and every play outcome of both protocol variants. A change
// that claims to leave play results alone (a faster simulator, a lazier
// checker) must leave every constant as it is; a change that means to
// alter them records the new digests and says why.
var pinnedOutcomes = map[string]uint64{
	"random n=6 costs=uniform workload=all-pairs seed=4286874518010594979":                                     0x2a61984d8d3dfc34,
	"random n=6 costs=uniform workload=hotspot seed=3222009688501489506":                                       0x1044b8d8edcf55f4,
	"prefattach n=6 costs=uniform workload=all-pairs seed=4176923404957562113":                                 0xe546c8605b92525a,
	"prefattach n=6 costs=uniform workload=hotspot seed=539895478349349248":                                    0x0d406d7e8f911485,
	"twotier n=6 costs=uniform workload=all-pairs seed=2582631232139510076":                                    0xbd171d827732df04,
	"twotier n=6 costs=uniform workload=hotspot seed=3637863628678074111":                                      0x4179dad79527ad8d,
	"random n=6 costs=uniform workload=all-pairs loss=0.1 burst=3 seed=1966840562083916691":                    0x5a52846c40f447fd,
	"prefattach n=6 costs=uniform workload=all-pairs loss=0.1 burst=3 seed=188196820544139276":                 0x8e4495e736abff82,
	"twotier n=6 costs=uniform workload=all-pairs loss=0.1 burst=3 seed=3224241747888170453":                   0x018813888ee6cded,
	"random n=6 costs=uniform workload=all-pairs shards=2 crash=participant seed=46686968719355021":            0xedd26177e5785b3d,
	"twotier n=6 costs=uniform workload=all-pairs shards=2 crash=participant seed=1769843757985721952":         0x123b11da22ff6a45,
	"random n=6 costs=uniform workload=all-pairs epochs=3 join=1 leave=1 redraw=0.25 seed=2481498919935417976": 0xce469c98ff8d5347,
}

// outcomeSpecs is the deviation-sweep spec set at suite seed 1 (the
// set faithcheck -suite checks by default): the smoke suite's n=6
// specs and every loss and settle spec, plus, with churn, the churn
// suite's first spec.
func outcomeSpecs(t *testing.T, withChurn bool) []scenario.Spec {
	t.Helper()
	var specs []scenario.Spec
	for _, pick := range []struct {
		suite string
		keep  func(i int, sp scenario.Spec) bool
	}{
		{"smoke", func(_ int, sp scenario.Spec) bool { return sp.N == 6 }},
		{"loss", func(int, scenario.Spec) bool { return true }},
		{"settle", func(int, scenario.Spec) bool { return true }},
		{"churn", func(i int, _ scenario.Spec) bool { return withChurn && i == 0 }},
	} {
		s, ok := scenario.LookupSuite(pick.suite)
		if !ok {
			t.Fatalf("suite %q not registered", pick.suite)
		}
		for i, sp := range s.Specs(1) {
			if pick.keep(i, sp) {
				specs = append(specs, sp)
			}
		}
	}
	return specs
}

// TestPinnedPlayOutcomes digests every play of the sweep spec set and
// compares it with the committed constant: each outcome contributes
// Completed, the utilities in node order and the Detected list. It
// pins whole-run behaviour that reports alone do not show, such as who
// the bank flagged in a play that was unprofitable anyway.
func TestPinnedPlayOutcomes(t *testing.T) {
	specs := outcomeSpecs(t, !testing.Short())
	if !testing.Short() && len(specs) != len(pinnedOutcomes) {
		t.Errorf("%d specs in the sweep set, %d digests pinned", len(specs), len(pinnedOutcomes))
	}
	for _, sp := range specs {
		name := sp.Describe()
		t.Run(name, func(t *testing.T) {
			var systems [2]core.System
			perEpoch := sp.Churn.Dynamic()
			if perEpoch {
				tl, err := churn.Build(sp)
				if err != nil {
					t.Fatal(err)
				}
				systems = [2]core.System{churn.NewSystem(tl, churn.Plain), churn.NewSystem(tl, churn.Faithful)}
			} else {
				comp, err := sp.Compile()
				if err != nil {
					t.Fatal(err)
				}
				plain, faithful := comp.Systems()
				systems = [2]core.System{plain, faithful}
			}
			h := fnv.New64a()
			for _, sys := range systems {
				digestPlays(t, h, sys, perEpoch)
			}
			got := h.Sum64()
			want, ok := pinnedOutcomes[name]
			if !ok {
				t.Fatalf("no pinned digest; pin it with %q: %#016x", name, got)
			}
			if got != want {
				t.Errorf("outcome digest %#016x, pinned %#016x", got, want)
			}
		})
	}
}

// digestPlays writes the baseline and every play of sys into h, in the
// engine's grid order: Nodes() × Deviations(), and for a per-epoch
// search × the deviation's epochs (all of them when EpochsOf is nil).
func digestPlays(t *testing.T, h io.Writer, sys core.System, perEpoch bool) {
	t.Helper()
	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	writeOutcome(h, st.Baseline())
	ctx := core.NewPlayContext(0)
	for _, node := range sys.Nodes() {
		for _, dev := range sys.Deviations(node) {
			if !perEpoch {
				out, err := sys.Play(ctx, st, node, dev)
				if err != nil {
					t.Fatalf("node %d %s: %v", node, dev.Name(), err)
				}
				writeOutcome(h, out)
				continue
			}
			es := sys.(core.EpochedSystem)
			epochs := es.EpochsOf(node, dev)
			if epochs == nil {
				for e := 0; e < es.NumEpochs(); e++ {
					epochs = append(epochs, e)
				}
			}
			for _, e := range epochs {
				out, err := es.PlayEpoch(ctx, st, node, dev, e)
				if err != nil {
					t.Fatalf("node %d %s epoch %d: %v", node, dev.Name(), e, err)
				}
				writeOutcome(h, out)
			}
		}
	}
}

// writeOutcome appends one outcome: Completed, then (node, utility)
// pairs in node order, then the Detected list as reported.
func writeOutcome(h io.Writer, out core.Outcome) {
	var buf []byte
	if out.Completed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	nodes := make([]core.NodeID, 0, len(out.Utilities))
	for id := range out.Utilities {
		nodes = append(nodes, id)
	}
	slices.Sort(nodes)
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	for _, id := range nodes {
		buf = binary.AppendVarint(buf, int64(id))
		buf = binary.AppendVarint(buf, out.Utilities[id])
	}
	buf = binary.AppendUvarint(buf, uint64(len(out.Detected)))
	for _, id := range out.Detected {
		buf = binary.AppendVarint(buf, int64(id))
	}
	h.Write(buf)
}
