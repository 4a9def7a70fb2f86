package scenario

import (
	"strings"
	"testing"

	"repro/internal/settle"
	"repro/internal/sim"
)

// TestDescribeShards pins the shard rendering (it feeds seed keying,
// so the label format is part of the reproducibility contract).
func TestDescribeShards(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Seed: 2, Shards: Shards{K: 2}}
	if got, want := sp.Describe(), "random n=6 shards=2 seed=2"; got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	sp.Shards.Crash = settle.PlanParticipant
	if got, want := sp.Describe(), "random n=6 shards=2 crash=participant seed=2"; got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	// The failure axes compose in one label: loss before shards.
	sp = Spec{Family: Random, N: 6, Seed: 2, Loss: Loss{Rate: 0.1}, Shards: Shards{K: 4}}
	if got, want := sp.Describe(), "random n=6 loss=0.1 shards=4 seed=2"; got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	// The zero-value axis keeps the exact pre-shard label — every
	// existing suite's derived seeds depend on it.
	sp = Spec{Family: Random, N: 6, Seed: 2}
	if got, want := sp.Describe(), "random n=6 seed=2"; got != want {
		t.Errorf("zero-value Describe = %q, want %q", got, want)
	}
}

// TestShardsZeroValueByteCompatible: a Spec without the axis must
// materialize exactly as pre-shard builds did — disabled Params.Settle
// and an unchanged derived seed.
func TestShardsZeroValueByteCompatible(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Seed: 4}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Params.Settle.Enabled() || c.Params.Settle != (settle.Options{}) {
		t.Errorf("zero-value axis produced live settlement options: %+v", c.Params.Settle)
	}
	// deriveSeed is keyed on Describe; the pinned value matches
	// TestLossZeroValueByteCompatible's.
	if got, want := deriveSeed(1, sp), int64(453723182315541180); sp.Workload == WorkloadAllPairs && got != want {
		t.Errorf("zero-value seed derivation changed: %d want %d", got, want)
	}
}

// TestSettleOptionsDerivation: the settlement seed mixes the Spec seed
// with the package salt; epoch re-salting changes the routing/crash
// stream but epoch 0 equals the static options.
func TestSettleOptionsDerivation(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Seed: 4, Shards: Shards{K: 2, Crash: settle.PlanCoordinator}}
	o := sp.SettleOptions()
	if !o.Enabled() || o.Shards != 2 || o.Plan != settle.PlanCoordinator {
		t.Fatalf("SettleOptions = %+v", o)
	}
	if o.Seed != sim.Mix64(uint64(4)^shardSeedSalt) {
		t.Errorf("settlement seed %#x not derived from spec seed + salt", o.Seed)
	}
	// Same Spec ⇒ same options, always (the determinism contract).
	if sp.SettleOptions() != o {
		t.Error("SettleOptions not a pure function of the Spec")
	}
	// Epoch salting: epoch 0 static, later epochs fresh but stable.
	if sp.SettleOptionsForEpoch(0) != o {
		t.Error("epoch 0 must replay the static settlement")
	}
	e1, e2 := sp.SettleOptionsForEpoch(1), sp.SettleOptionsForEpoch(2)
	if e1.Seed == o.Seed || e2.Seed == o.Seed || e1.Seed == e2.Seed {
		t.Errorf("epoch settlements must all differ: static=%#x e1=%#x e2=%#x", o.Seed, e1.Seed, e2.Seed)
	}
	if e1.Shards != o.Shards || e1.Plan != o.Plan {
		t.Errorf("epoch re-salt changed more than the seed: %+v", e1)
	}
	if sp.SettleOptionsForEpoch(1) != e1 {
		t.Error("epoch settlement not deterministic")
	}
	// A disabled axis yields the zero options at every epoch.
	off := Spec{Family: Random, N: 6, Seed: 4}
	if off.SettleOptionsForEpoch(3) != (settle.Options{}) {
		t.Error("disabled axis produced live epoch options")
	}
}

// TestShardsMaterialized: Compile/Materialize thread the options into
// Params, and invalid axis combinations fail the build with a
// scenario-labeled error.
func TestShardsMaterialized(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Seed: 4, Shards: Shards{K: 3, Crash: settle.PlanRecovery}}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Params.Settle != sp.SettleOptions() {
		t.Errorf("Params.Settle = %+v, want %+v", c.Params.Settle, sp.SettleOptions())
	}

	for _, tc := range []struct {
		name   string
		shards Shards
		want   string
	}{
		{"negative K", Shards{K: -1}, "K must be >= 0"},
		{"unknown plan", Shards{K: 2, Crash: "meteor"}, "unknown crash plan"},
		{"crash without shards", Shards{Crash: settle.PlanParticipant}, "needs K > 0"},
	} {
		bad := Spec{Family: Random, N: 6, Seed: 4, Shards: tc.shards}
		if _, err := bad.Compile(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Compile err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSettleSuiteSpecs: the shard axis flows from the suite into every
// spec, distinguishes identities from the singleton-bank counterparts,
// and the built-in settle suite compiles.
func TestSettleSuiteSpecs(t *testing.T) {
	s, ok := LookupSuite("settle")
	if !ok {
		t.Fatal("settle suite not registered")
	}
	specs := s.Specs(1)
	if len(specs) == 0 {
		t.Fatal("settle suite empty")
	}
	for _, sp := range specs {
		if sp.Shards != s.Shards {
			t.Fatalf("%s: shards %+v, want %+v", sp.Describe(), sp.Shards, s.Shards)
		}
		if _, err := sp.Compile(); err != nil {
			t.Fatalf("%s: %v", sp.Describe(), err)
		}
		singleton := sp
		singleton.Shards = Shards{}
		if sp.Describe() == singleton.Describe() {
			t.Fatalf("%s: sharded and singleton specs share an identity", sp.Describe())
		}
		if sp.Seed == deriveSeed(1, singleton) {
			t.Fatalf("%s: sharded and singleton specs derive the same seed", sp.Describe())
		}
	}
}
