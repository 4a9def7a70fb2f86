package scenario

import (
	"testing"

	"repro/internal/sim"
)

// TestDescribeLoss pins the loss rendering (it feeds seed keying, so
// the label format is part of the reproducibility contract).
func TestDescribeLoss(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Seed: 2, Loss: Loss{Rate: 0.1}}
	if got, want := sp.Describe(), "random n=6 loss=0.1 seed=2"; got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	sp.Loss.Burst = 3
	if got, want := sp.Describe(), "random n=6 loss=0.1 burst=3 seed=2"; got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	// A lossy spec composes with churn in one label.
	sp = Spec{Family: Random, N: 6, Seed: 2, Churn: Churn{Epochs: 3, Joins: 1}, Loss: Loss{Rate: 0.2}}
	if got, want := sp.Describe(), "random n=6 epochs=3 join=1 leave=0 loss=0.2 seed=2"; got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	// The zero-value axis keeps the exact pre-loss label — every
	// existing suite's derived seeds depend on it.
	sp = Spec{Family: Random, N: 6, Seed: 2}
	if got, want := sp.Describe(), "random n=6 seed=2"; got != want {
		t.Errorf("zero-value Describe = %q, want %q", got, want)
	}
}

// TestLossZeroValueByteCompatible: a Spec without the axis must
// materialize exactly as pre-loss builds did — disabled Params.Loss,
// unchanged identity, unchanged derived seed.
func TestLossZeroValueByteCompatible(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Seed: 4}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Params.Loss.Enabled() || c.Params.Loss != (sim.LossModel{}) {
		t.Errorf("zero-value axis produced a live model: %+v", c.Params.Loss)
	}
	cfg := c.FaithfulConfig()
	if cfg.Loss.Enabled() {
		t.Errorf("zero-value axis leaked into FaithfulConfig: %+v", cfg.Loss)
	}
	// deriveSeed is keyed on Describe; the pinned values in
	// TestDeriveSeedPinned cover the rest.
	if got, want := deriveSeed(1, sp), int64(453723182315541180); sp.Workload == WorkloadAllPairs && got != want {
		t.Errorf("zero-value seed derivation changed: %d want %d", got, want)
	}
}

// TestLossModelDerivation: the schedule seed mixes the Spec seed with
// the package salt; epoch re-salting changes the schedule but epoch 0
// equals the static model.
func TestLossModelDerivation(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Seed: 4, Loss: Loss{Rate: 0.1, Burst: 2}}
	m := sp.LossModel()
	if !m.Enabled() || m.Rate != 0.1 || m.Burst != 2 {
		t.Fatalf("LossModel = %+v", m)
	}
	if m.Seed != sim.Mix64(uint64(4)^lossSeedSalt) {
		t.Errorf("schedule seed %#x not derived from spec seed + salt", m.Seed)
	}
	// Same Spec ⇒ same model, always (the determinism contract).
	if sp.LossModel() != m {
		t.Error("LossModel not a pure function of the Spec")
	}
	// Epoch salting: epoch 0 static, later epochs fresh but stable.
	if sp.LossModelForEpoch(0) != m {
		t.Error("epoch 0 must replay the static schedule")
	}
	e1, e2 := sp.LossModelForEpoch(1), sp.LossModelForEpoch(2)
	if e1.Seed == m.Seed || e2.Seed == m.Seed || e1.Seed == e2.Seed {
		t.Errorf("epoch schedules must all differ: static=%#x e1=%#x e2=%#x", m.Seed, e1.Seed, e2.Seed)
	}
	if sp.LossModelForEpoch(1) != e1 {
		t.Error("epoch schedule not deterministic")
	}
	// A disabled axis yields the zero model at every epoch.
	off := Spec{Family: Random, N: 6, Seed: 4}
	if off.LossModelForEpoch(3) != (sim.LossModel{}) {
		t.Error("disabled axis produced a live epoch model")
	}
}

// TestLossMaterialized: Compile/Materialize thread the model into
// Params and FaithfulConfig.
func TestLossMaterialized(t *testing.T) {
	sp := Spec{Family: Random, N: 6, Seed: 4, Loss: Loss{Rate: 0.15, Burst: 3}}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Params.Loss != sp.LossModel() {
		t.Errorf("Params.Loss = %+v, want %+v", c.Params.Loss, sp.LossModel())
	}
	if got := c.FaithfulConfig().Loss; got != sp.LossModel() {
		t.Errorf("FaithfulConfig.Loss = %+v, want %+v", got, sp.LossModel())
	}
}

// TestLossSuiteSpecs: the loss axis flows from the suite into every
// spec, distinguishes identities from the reliable counterparts, and
// the built-in loss suite compiles.
func TestLossSuiteSpecs(t *testing.T) {
	s, ok := LookupSuite("loss")
	if !ok {
		t.Fatal("loss suite not registered")
	}
	specs := s.Specs(1)
	if len(specs) == 0 {
		t.Fatal("loss suite empty")
	}
	for _, sp := range specs {
		if sp.Loss != s.Loss {
			t.Fatalf("%s: loss %+v, want %+v", sp.Describe(), sp.Loss, s.Loss)
		}
		if sp.Loss.Rate > 0.25 {
			t.Fatalf("%s: suite rate %g above the tolerable threshold", sp.Describe(), sp.Loss.Rate)
		}
		if _, err := sp.Compile(); err != nil {
			t.Fatalf("%s: %v", sp.Describe(), err)
		}
		reliable := sp
		reliable.Loss = Loss{}
		if sp.Describe() == reliable.Describe() {
			t.Fatalf("%s: lossy and reliable specs share an identity", sp.Describe())
		}
		if sp.Seed == deriveSeed(1, reliable) {
			t.Fatalf("%s: lossy and reliable specs derive the same seed", sp.Describe())
		}
	}
}

// TestMix64DelegatesToSim: the single-definition invariant — every
// seed-derivation path shares sim.Mix64.
func TestMix64DelegatesToSim(t *testing.T) {
	for _, x := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		if Mix64(x) != sim.Mix64(x) {
			t.Fatalf("Mix64(%#x) diverged from sim.Mix64", x)
		}
	}
}
