package spec

import (
	"errors"
	"math/big"
	"testing"
)

// buildToyMachine models a tiny mechanism participant: reveal a value,
// forward a neighbor's message, compute a result, stop.
func buildToyMachine(t *testing.T) *Machine {
	t.Helper()
	m := NewMachine()
	m.AddState("start", true)
	m.AddState("revealed", false)
	m.AddState("forwarded", false)
	m.AddState("done", false)
	actions := []Action{
		{Name: "reveal-cost", Kind: InfoRevelation},
		{Name: "forward-update", Kind: MessagePassing},
		{Name: "compute-lcp", Kind: Computation},
		{Name: "note", Kind: Internal},
	}
	for _, a := range actions {
		if err := m.AddAction(a); err != nil {
			t.Fatal(err)
		}
	}
	trs := []Transition{
		{From: "start", Action: "reveal-cost", To: "revealed"},
		{From: "revealed", Action: "forward-update", To: "forwarded"},
		{From: "forwarded", Action: "compute-lcp", To: "done"},
	}
	for _, tr := range trs {
		if err := m.AddTransition(tr); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func buildToySpec(t *testing.T) *Specification {
	t.Helper()
	m := buildToyMachine(t)
	sp := NewSpecification(m)
	for s, a := range map[State]string{
		"start":     "reveal-cost",
		"revealed":  "forward-update",
		"forwarded": "compute-lcp",
	} {
		if err := sp.Suggest(s, a); err != nil {
			t.Fatal(err)
		}
	}
	return sp
}

func TestActionKindString(t *testing.T) {
	tests := []struct {
		k    ActionKind
		want string
	}{
		{Internal, "internal"},
		{InfoRevelation, "information-revelation"},
		{MessagePassing, "message-passing"},
		{Computation, "computation"},
		{ActionKind(99), "ActionKind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.k), got, tt.want)
		}
	}
	if Internal.External() {
		t.Error("Internal should not be external")
	}
	if !Computation.External() || !MessagePassing.External() || !InfoRevelation.External() {
		t.Error("non-internal kinds should be external")
	}
}

func TestMachineConstruction(t *testing.T) {
	m := buildToyMachine(t)
	if got := len(m.States()); got != 4 {
		t.Errorf("states = %d, want 4", got)
	}
	if got := len(m.Actions()); got != 4 {
		t.Errorf("actions = %d, want 4", got)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if _, ok := m.Action("reveal-cost"); !ok {
		t.Error("Action lookup failed")
	}
	next, ok := m.Next("start", "reveal-cost")
	if !ok || next != "revealed" {
		t.Errorf("Next = %q,%v", next, ok)
	}
	if _, ok := m.Next("start", "compute-lcp"); ok {
		t.Error("undefined transition should not resolve")
	}
}

func TestMachineValidationErrors(t *testing.T) {
	m := NewMachine()
	if err := m.Validate(); !errors.Is(err, ErrNoInitialState) {
		t.Errorf("Validate = %v, want ErrNoInitialState", err)
	}
	m.AddState("a", true)
	if err := m.AddAction(Action{Name: "x", Kind: Internal}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddAction(Action{Name: "x", Kind: Computation}); !errors.Is(err, ErrDuplicateAction) {
		t.Errorf("duplicate action = %v, want ErrDuplicateAction", err)
	}
	if err := m.AddTransition(Transition{From: "nope", Action: "x", To: "a"}); !errors.Is(err, ErrUnknownState) {
		t.Errorf("unknown from = %v", err)
	}
	if err := m.AddTransition(Transition{From: "a", Action: "nope", To: "a"}); !errors.Is(err, ErrUnknownAction) {
		t.Errorf("unknown action = %v", err)
	}
	m.AddState("b", false)
	if err := m.AddTransition(Transition{From: "a", Action: "x", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransition(Transition{From: "a", Action: "x", To: "a"}); !errors.Is(err, ErrNondeterministic) {
		t.Errorf("nondeterministic = %v, want ErrNondeterministic", err)
	}
	// Re-adding the identical transition is fine.
	if err := m.AddTransition(Transition{From: "a", Action: "x", To: "b"}); err != nil {
		t.Errorf("idempotent transition = %v", err)
	}
}

func TestSpecificationValidate(t *testing.T) {
	sp := buildToySpec(t)
	if err := sp.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Removing one suggestion breaks completeness.
	m := buildToyMachine(t)
	incomplete := NewSpecification(m)
	if err := incomplete.Suggest("start", "reveal-cost"); err != nil {
		t.Fatal(err)
	}
	if err := incomplete.Validate(); !errors.Is(err, ErrIncompleteSpec) {
		t.Errorf("incomplete = %v, want ErrIncompleteSpec", err)
	}
}

func TestSuggestValidation(t *testing.T) {
	sp := buildToySpec(t)
	if err := sp.Suggest("nope", "reveal-cost"); !errors.Is(err, ErrUnknownState) {
		t.Errorf("unknown state = %v", err)
	}
	if err := sp.Suggest("start", "nope"); !errors.Is(err, ErrUnknownAction) {
		t.Errorf("unknown action = %v", err)
	}
}

func TestSpecSuggestedMismatchCaught(t *testing.T) {
	m := buildToyMachine(t)
	sp := NewSpecification(m)
	// Suggest an action with no transition from that state.
	for s, a := range map[State]string{
		"start":     "compute-lcp", // no transition start--compute-lcp
		"revealed":  "forward-update",
		"forwarded": "compute-lcp",
	} {
		if err := sp.Suggest(s, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Validate(); !errors.Is(err, ErrUnknownAction) {
		t.Errorf("mismatched suggestion = %v, want ErrUnknownAction", err)
	}
}

func TestTrace(t *testing.T) {
	sp := buildToySpec(t)
	trace, err := sp.Trace("start", 10)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []ActionKind{InfoRevelation, MessagePassing, Computation}
	if len(trace) != len(wantKinds) {
		t.Fatalf("trace = %v", trace)
	}
	for i, a := range trace {
		if a.Kind != wantKinds[i] {
			t.Errorf("trace[%d].Kind = %v, want %v", i, a.Kind, wantKinds[i])
		}
	}
	if _, err := sp.Trace("revealed", 10); err == nil {
		t.Error("non-initial start should error")
	}
}

func TestTraceStepBudget(t *testing.T) {
	m := NewMachine()
	m.AddState("loop", true)
	if err := m.AddAction(Action{Name: "spin", Kind: Internal}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransition(Transition{From: "loop", Action: "spin", To: "loop"}); err != nil {
		t.Fatal(err)
	}
	sp := NewSpecification(m)
	if err := sp.Suggest("loop", "spin"); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Trace("loop", 5); err == nil {
		t.Error("infinite spec should exhaust step budget")
	}
}

func TestSubStrategies(t *testing.T) {
	sp := buildToySpec(t)
	r, p, c := sp.SubStrategies()
	if len(r) != 1 || r[0] != "start" {
		t.Errorf("revelation states = %v", r)
	}
	if len(p) != 1 || p[0] != "revealed" {
		t.Errorf("passing states = %v", p)
	}
	if len(c) != 1 || c[0] != "forwarded" {
		t.Errorf("computation states = %v", c)
	}
}

func TestPhaseJointDeviations(t *testing.T) {
	p := Phase{DeviationPoints: 3, Alternatives: 3}
	// (3+1)^3 - 1 = 63
	if got := p.JointDeviations(); got.Cmp(big.NewInt(63)) != 0 {
		t.Errorf("JointDeviations = %v, want 63", got)
	}
	zero := Phase{}
	if got := zero.JointDeviations(); got.Sign() != 0 {
		t.Errorf("empty phase deviations = %v, want 0", got)
	}
}

func TestDecompositionSavingsExponentialGap(t *testing.T) {
	phase := Phase{DeviationPoints: 4, Alternatives: 3}
	phases := []Phase{phase, phase, phase} // construction 1 and 2, execution
	mono, phased := DecompositionSavings(phases)
	// monolithic = 256^3 - 1; phased = 3 * 255.
	wantMono := new(big.Int).Sub(new(big.Int).Exp(big.NewInt(256), big.NewInt(3), nil), big.NewInt(1))
	if mono.Cmp(wantMono) != 0 {
		t.Errorf("monolithic = %v, want %v", mono, wantMono)
	}
	if phased.Cmp(big.NewInt(765)) != 0 {
		t.Errorf("phased = %v, want 765", phased)
	}
	if mono.Cmp(phased) <= 0 {
		t.Error("decomposition must strictly reduce the joint space")
	}
}
