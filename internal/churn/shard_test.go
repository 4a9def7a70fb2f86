package churn

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/settle"
)

// shardedDynamicSpec composes churn with the sharded-settlement axis:
// three epochs over a 2-shard bank with a participant crash-restart
// per settlement.
func shardedDynamicSpec() scenario.Spec {
	sp := dynamicSpec()
	sp.Shards = scenario.Shards{K: 2, Crash: settle.PlanParticipant}
	return sp
}

// TestSettleComposesWithChurn: every epoch of a sharded timeline
// carries live settlement options, epoch 0 replays the static
// derivation, and later epochs are re-salted — fresh home-shard
// routing and crash timings per epoch, while K and the crash plan stay
// the axis's.
func TestSettleComposesWithChurn(t *testing.T) {
	sp := shardedDynamicSpec()
	tl := mustBuild(t, sp)
	seen := map[uint64]int{}
	for i, e := range tl.Epochs {
		o := e.Compiled.Params.Settle
		if !o.Enabled() {
			t.Fatalf("epoch %d lost the settlement options", i)
		}
		if o.Shards != sp.Shards.K || o.Plan != sp.Shards.Crash {
			t.Fatalf("epoch %d options %+v deviate from the axis %+v", i, o, sp.Shards)
		}
		if o != sp.SettleOptionsForEpoch(i) {
			t.Fatalf("epoch %d options not the spec's epoch derivation", i)
		}
		if prev, dup := seen[o.Seed]; dup {
			t.Fatalf("epochs %d and %d share a settlement seed", prev, i)
		}
		seen[o.Seed] = i
	}
	if tl.Epochs[0].Compiled.Params.Settle != sp.SettleOptions() {
		t.Fatal("epoch 0 must replay the static settlement")
	}
	// The composed timeline is still a pure function of the Spec.
	again := mustBuild(t, sp)
	for i := range tl.Epochs {
		if tl.Epochs[i].Compiled.Params.Settle != again.Epochs[i].Compiled.Params.Settle {
			t.Fatalf("epoch %d settlement options not deterministic", i)
		}
	}
	// A singleton-bank timeline of the same spec carries none anywhere.
	singleton := mustBuild(t, dynamicSpec())
	for i, e := range singleton.Epochs {
		if e.Compiled.Params.Settle.Enabled() {
			t.Fatalf("singleton epoch %d grew settlement options", i)
		}
	}
}

// TestShardCatalogueUnderChurn: the shard-window deviation family
// rides the settlement axis into every identity's churn catalogue, and
// a singleton-bank timeline keeps its catalogue byte-identical.
func TestShardCatalogueUnderChurn(t *testing.T) {
	names := func(sys *System, id Identity) map[string]bool {
		out := map[string]bool{}
		for _, d := range sys.Deviations(core.NodeID(id)) {
			out[d.Name()] = true
		}
		return out
	}
	sharded := NewSystem(mustBuild(t, shardedDynamicSpec()), Faithful)
	singleton := NewSystem(mustBuild(t, dynamicSpec()), Faithful)
	for _, want := range []string{"exit-scam-2pc-window", "double-credit-two-homes", "stall-prepare-abort"} {
		for _, id := range sharded.tl.Identities() {
			if !names(sharded, id)[want] {
				t.Errorf("identity %d: %s missing under the shard axis", id, want)
			}
		}
		for _, id := range singleton.tl.Identities() {
			if names(singleton, id)[want] {
				t.Errorf("identity %d: %s present without the shard axis", id, want)
			}
		}
	}
}

// TestLeaveMasqueradingAsLoss: the churn×loss composite deviation — a
// leaver going handler-silent behind the lossy network and departing
// with an empty DATA4 — is attributed to the node by the extended
// specification, while an honest leaver on the same lossy links
// departs unflagged. The deviation only exists when both axes are on.
func TestLeaveMasqueradingAsLoss(t *testing.T) {
	const name = "leave-masquerading-as-loss"
	sys := NewSystem(mustBuild(t, lossyDynamicSpec()), Faithful)

	// Honest lossy leavers are the control: genuine drops belong to the
	// network, so the honest timeline must end with nobody flagged.
	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	honest := st.Baseline()
	if len(honest.Detected) != 0 {
		t.Fatalf("honest lossy timeline flagged %v", honest.Detected)
	}

	found := false
	for _, id := range sys.tl.Identities() {
		var dev core.Deviation
		for _, d := range sys.Deviations(core.NodeID(id)) {
			if d.Name() == name {
				dev = d
			}
		}
		if dev == nil {
			continue
		}
		found = true
		epochs := sys.EpochsOf(core.NodeID(id), dev)
		if len(epochs) != 1 {
			t.Fatalf("identity %d: %s active in %v, want exactly the last member epoch", id, name, epochs)
		}
		boundary, leaves := sys.tl.DepartureOf(id)
		if !leaves || epochs[0] != boundary-1 {
			t.Fatalf("identity %d: %s active in %d, departure boundary %d (leaves=%v)",
				id, name, epochs[0], boundary, leaves)
		}
		out, err := sys.PlayEpoch(nil, st, core.NodeID(id), dev, epochs[0])
		if err != nil {
			t.Fatal(err)
		}
		flagged := false
		for _, d := range out.Detected {
			if d == core.NodeID(id) {
				flagged = true
			}
		}
		if !flagged {
			t.Errorf("identity %d: %s not attributed to the node (detected=%v)", id, name, out.Detected)
		}
		if got, base := out.Utilities[core.NodeID(id)], honest.Utilities[core.NodeID(id)]; got >= base {
			t.Errorf("identity %d: %s utility %d not strictly below honest %d", id, name, got, base)
		}
	}
	if !found {
		t.Fatal("no identity carries the deviation; the schedule has no leavers?")
	}

	// Both axes gate it: churn alone (no loss) must not offer it.
	reliable := NewSystem(mustBuild(t, dynamicSpec()), Faithful)
	for _, id := range reliable.tl.Identities() {
		for _, d := range reliable.Deviations(core.NodeID(id)) {
			if d.Name() == name {
				t.Fatalf("identity %d: %s present without the loss axis", id, name)
			}
		}
	}
}

// TestShardedChurnVerdicts: the composed axes end to end — the
// per-epoch deviation search over a sharded timeline keeps the
// extended spec clean and stays byte-identical across worker counts.
func TestShardedChurnVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("per-epoch deviation search")
	}
	tl := mustBuild(t, shardedDynamicSpec())
	seq, err := core.CheckFaithfulnessCfg(NewSystem(tl, Faithful), core.CheckConfig{Workers: 1, PerEpoch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Faithful() {
		t.Fatalf("faithful spec violated under sharded churn: %v", seq.Violations)
	}
	par, err := core.CheckFaithfulnessCfg(NewSystem(mustBuild(t, shardedDynamicSpec()), Faithful),
		core.CheckConfig{Workers: 4, PerEpoch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sharded churn report differs across worker counts\nseq: %+v\npar: %+v", seq, par)
	}
}
