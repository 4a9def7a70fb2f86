package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/spec"
)

// BasicDeviation is a Deviation with a fixed name and class list. Its
// Classes returns the shared slice, as a catalogue's deviations do.
type BasicDeviation struct {
	DevName    string
	DevClasses []spec.ActionKind
}

func (d BasicDeviation) Name() string               { return d.DevName }
func (d BasicDeviation) Classes() []spec.ActionKind { return d.DevClasses }

// fakeSystem is a tiny 2-node game with a configurable payoff table:
// each node may play "honest" (suggested) or one catalogued deviation.
// Snapshot and Play only read the tables, so concurrent plays are safe;
// runs counts them, so tests can observe how much work early stop
// saved.
type fakeSystem struct {
	// gain[node][deviation name] = utility delta vs baseline.
	gain     map[NodeID]map[string]int64
	devs     map[NodeID][]Deviation
	baseline map[NodeID]int64
	runErr   error
	baseErr  error

	mu   sync.Mutex
	runs int
}

// fakeState is the fakes' truthful snapshot: just the honest outcome.
type fakeState struct{ base Outcome }

func (s fakeState) Baseline() Outcome { return s.base }

func (f *fakeSystem) Nodes() []NodeID {
	return []NodeID{0, 1}
}

func (f *fakeSystem) Deviations(n NodeID) []Deviation { return f.devs[n] }

func (f *fakeSystem) Snapshot() (TruthfulState, error) {
	f.count()
	if f.baseErr != nil {
		return nil, f.baseErr
	}
	u := make(map[NodeID]int64, len(f.baseline))
	for k, v := range f.baseline {
		u[k] = v
	}
	return fakeState{Outcome{Utilities: u, Completed: true}}, nil
}

func (f *fakeSystem) count() {
	f.mu.Lock()
	f.runs++
	f.mu.Unlock()
}

func (f *fakeSystem) Play(_ *PlayContext, _ TruthfulState, deviator NodeID, dev Deviation) (Outcome, error) {
	f.count()
	if f.runErr != nil {
		return Outcome{}, f.runErr
	}
	u := make(map[NodeID]int64, len(f.baseline))
	for k, v := range f.baseline {
		u[k] = v
	}
	u[deviator] += f.gain[deviator][dev.Name()]
	return Outcome{Utilities: u, Completed: true}, nil
}

func newFake() *fakeSystem {
	return &fakeSystem{
		gain:     map[NodeID]map[string]int64{0: {}, 1: {}},
		devs:     map[NodeID][]Deviation{},
		baseline: map[NodeID]int64{0: 10, 1: 10},
	}
}

func (f *fakeSystem) addDeviation(n NodeID, name string, delta int64, classes ...spec.ActionKind) {
	f.devs[n] = append(f.devs[n], BasicDeviation{DevName: name, DevClasses: classes})
	f.gain[n][name] = delta
}

func TestFaithfulWhenNoGain(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "drop-msg", -5, spec.MessagePassing)
	f.addDeviation(1, "lie-cost", 0, spec.InfoRevelation) // tie: benevolence, not a violation
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Faithful() {
		t.Errorf("expected faithful, got violations %v", rep.Violations)
	}
	if rep.Checked != 2 {
		t.Errorf("checked = %d, want 2", rep.Checked)
	}
	if !rep.IC() || !rep.CC() || !rep.AC() {
		t.Error("all properties should hold")
	}
}

func TestViolationAttribution(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "spoof-price", 7, spec.MessagePassing, spec.Computation)
	f.addDeviation(1, "lie-cost", 3, spec.InfoRevelation)
	f.addDeviation(1, "harmless", -1, spec.Computation)
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faithful() {
		t.Fatal("expected violations")
	}
	if len(rep.Violations) != 2 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if rep.IC() {
		t.Error("IC should fail (lie-cost)")
	}
	if rep.CC() {
		t.Error("CC should fail (spoof-price)")
	}
	if rep.AC() {
		t.Error("AC should fail (spoof-price is joint with computation)")
	}
	v := rep.Violations[0]
	if v.Node != 0 || v.Gain() != 7 {
		t.Errorf("violation[0] = %+v", v)
	}
	if v.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestACOnlyViolation(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "miscompute", 4, spec.Computation)
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IC() || !rep.CC() {
		t.Error("IC/CC should hold")
	}
	if rep.AC() {
		t.Error("AC should fail")
	}
}

func TestBaselineError(t *testing.T) {
	f := newFake()
	f.baseErr = errors.New("boom")
	if _, err := CheckFaithfulnessCfg(f, CheckConfig{}); !errors.Is(err, ErrNoBaseline) {
		t.Errorf("err = %v, want ErrNoBaseline", err)
	}
}

func TestRunError(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "x", 1, spec.Computation)
	f.runErr = errors.New("deviant run failed")
	if _, err := CheckFaithfulnessCfg(f, CheckConfig{}); err == nil {
		t.Error("expected error")
	}
}

func TestMissingUtility(t *testing.T) {
	f := newFake()
	delete(f.baseline, 1)
	if _, err := CheckFaithfulnessCfg(f, CheckConfig{}); err == nil {
		t.Error("missing baseline utility should error")
	}
}

func TestViolationsSorted(t *testing.T) {
	f := newFake()
	f.addDeviation(1, "zz", 1, spec.Computation)
	f.addDeviation(1, "aa", 1, spec.Computation)
	f.addDeviation(0, "mm", 1, spec.Computation)
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 3 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	want := []struct {
		n NodeID
		d string
	}{{0, "mm"}, {1, "aa"}, {1, "zz"}}
	for i, w := range want {
		if rep.Violations[i].Node != w.n || rep.Violations[i].Deviation != w.d {
			t.Errorf("violations[%d] = %+v, want %+v", i, rep.Violations[i], w)
		}
	}
}

func TestViolationClassesIsolatedFromDeviation(t *testing.T) {
	// Classes() intentionally returns a shared read-only slice (no
	// defensive copy in the hot loop); the copy happens exactly once,
	// when a Violation is recorded. Mutating the deviation's backing
	// slice afterwards must not reach the recorded violation.
	backing := []spec.ActionKind{spec.Computation}
	d := BasicDeviation{DevName: "x", DevClasses: backing}
	if d.Name() != "x" {
		t.Error("Name wrong")
	}
	f := newFake()
	f.devs[0] = append(f.devs[0], d)
	f.gain[0]["x"] = 5
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	backing[0] = spec.InfoRevelation
	if rep.Violations[0].Classes[0] != spec.Computation {
		t.Error("recorded violation aliases the deviation's class slice")
	}
}

func ExampleCheckFaithfulnessCfg() {
	f := newFake()
	f.addDeviation(0, "drop-forward", 9, spec.MessagePassing)
	rep, _ := CheckFaithfulnessCfg(f, CheckConfig{})
	fmt.Println(rep.Faithful(), rep.CC())
	// Output: false false
}
