package spec

import (
	"errors"
	"fmt"
	"sort"
)

// This file is the paper's state-machine model of a node (§3.1): a
// machine SM = (L, A = {IA, EA}, T) and a suggested specification
// s : L → A over it, with the (r, p, c) sub-strategy split of §3.3.
// Only tests run it.

// External reports whether actions of this kind emit messages.
func (k ActionKind) External() bool { return k != Internal }

// State is a state label in a node's state machine.
type State string

// Action is a named, classified action.
type Action struct {
	Name string
	Kind ActionKind
}

// Transition is an element of the transition relation T ⊆ L × A × L.
type Transition struct {
	From   State
	Action string
	To     State
}

// Machine is the paper's SM = (L, A = {IA, EA}, T).
type Machine struct {
	states      map[State]bool
	initial     map[State]bool
	actions     map[string]Action
	transitions []Transition
}

// NewMachine returns an empty state machine.
func NewMachine() *Machine {
	return &Machine{
		states:  make(map[State]bool),
		initial: make(map[State]bool),
		actions: make(map[string]Action),
	}
}

// Errors returned by Machine and Specification validation.
var (
	ErrUnknownState     = errors.New("spec: unknown state")
	ErrUnknownAction    = errors.New("spec: unknown action")
	ErrDuplicateAction  = errors.New("spec: duplicate action")
	ErrNoInitialState   = errors.New("spec: no initial state")
	ErrIncompleteSpec   = errors.New("spec: state without suggested action")
	ErrNondeterministic = errors.New("spec: nondeterministic transition for state/action")
)

// AddState declares a state; initial marks it as a start state.
func (m *Machine) AddState(s State, isInitial bool) {
	m.states[s] = true
	if isInitial {
		m.initial[s] = true
	}
}

// AddAction declares an action.
func (m *Machine) AddAction(a Action) error {
	if _, ok := m.actions[a.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateAction, a.Name)
	}
	m.actions[a.Name] = a
	return nil
}

// AddTransition declares (from, action, to) ∈ T.
func (m *Machine) AddTransition(tr Transition) error {
	if !m.states[tr.From] {
		return fmt.Errorf("%w: %q", ErrUnknownState, tr.From)
	}
	if !m.states[tr.To] {
		return fmt.Errorf("%w: %q", ErrUnknownState, tr.To)
	}
	if _, ok := m.actions[tr.Action]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAction, tr.Action)
	}
	for _, t := range m.transitions {
		if t.From == tr.From && t.Action == tr.Action && t.To != tr.To {
			return fmt.Errorf("%w: %q/%q", ErrNondeterministic, tr.From, tr.Action)
		}
	}
	m.transitions = append(m.transitions, tr)
	return nil
}

// States returns the sorted state set.
func (m *Machine) States() []State {
	out := make([]State, 0, len(m.states))
	for s := range m.states {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Actions returns the sorted action set.
func (m *Machine) Actions() []Action {
	out := make([]Action, 0, len(m.actions))
	for _, a := range m.actions {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Action returns the named action.
func (m *Machine) Action(name string) (Action, bool) {
	a, ok := m.actions[name]
	return a, ok
}

// Next returns the successor of state s under action a, if defined.
func (m *Machine) Next(s State, action string) (State, bool) {
	for _, t := range m.transitions {
		if t.From == s && t.Action == action {
			return t.To, true
		}
	}
	return "", false
}

// Validate checks structural well-formedness.
func (m *Machine) Validate() error {
	if len(m.initial) == 0 {
		return ErrNoInitialState
	}
	return nil
}

// Specification is the paper's s : L → A — the suggested action for
// every state (§3.1). It is defined relative to a Machine.
type Specification struct {
	machine *Machine
	choice  map[State]string
}

// NewSpecification returns an empty specification over m.
func NewSpecification(m *Machine) *Specification {
	return &Specification{machine: m, choice: make(map[State]string)}
}

// Suggest sets the suggested action for state s.
func (sp *Specification) Suggest(s State, action string) error {
	if !sp.machine.states[s] {
		return fmt.Errorf("%w: %q", ErrUnknownState, s)
	}
	if _, ok := sp.machine.actions[action]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAction, action)
	}
	sp.choice[s] = action
	return nil
}

// Validate checks that every non-terminal state has a suggested action
// and that the machine itself is valid. Terminal states (no outgoing
// transitions) may omit an action.
func (sp *Specification) Validate() error {
	if err := sp.machine.Validate(); err != nil {
		return err
	}
	outgoing := make(map[State]bool)
	for _, t := range sp.machine.transitions {
		outgoing[t.From] = true
	}
	for s := range sp.machine.states {
		if !outgoing[s] {
			continue
		}
		name, ok := sp.choice[s]
		if !ok {
			return fmt.Errorf("%w: %q", ErrIncompleteSpec, s)
		}
		if _, defined := sp.machine.Next(s, name); !defined {
			return fmt.Errorf("%w: suggested action %q undefined in state %q", ErrUnknownAction, name, s)
		}
	}
	return nil
}

// Trace runs the specification from the given initial state until a
// state with no suggested transition, returning the action sequence.
// maxSteps bounds non-terminating specs.
func (sp *Specification) Trace(start State, maxSteps int) ([]Action, error) {
	if !sp.machine.initial[start] {
		return nil, fmt.Errorf("%w: %q is not initial", ErrUnknownState, start)
	}
	var out []Action
	s := start
	for step := 0; step < maxSteps; step++ {
		name, ok := sp.choice[s]
		if !ok {
			return out, nil
		}
		next, ok := sp.machine.Next(s, name)
		if !ok {
			return out, nil
		}
		out = append(out, sp.machine.actions[name])
		s = next
	}
	return out, fmt.Errorf("spec: trace exceeded %d steps", maxSteps)
}

// SubStrategies splits the suggested specification into the paper's
// (r, p, c) decomposition: the states at which each sub-strategy is
// responsible for the external action (§3.3).
func (sp *Specification) SubStrategies() (revelation, passing, computation []State) {
	for s, name := range sp.choice {
		switch sp.machine.actions[name].Kind {
		case InfoRevelation:
			revelation = append(revelation, s)
		case MessagePassing:
			passing = append(passing, s)
		case Computation:
			computation = append(computation, s)
		}
	}
	sortStates(revelation)
	sortStates(passing)
	sortStates(computation)
	return revelation, passing, computation
}

func sortStates(ss []State) {
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
}
