package spec

import "fmt"

// BuildExtendedFPSS formalizes the paper's extended FPSS specification
// as a state machine, as §4.1 suggests ("This specification could be
// formalized with a state machine"). The machine is a per-node view of
// one pass through the protocol; actions carry their §3.4
// classification, which the sub-strategy split (r, p, c) consumes.
func BuildExtendedFPSS() (*Machine, *Specification, error) {
	m := NewMachine()

	states := []struct {
		name    State
		initial bool
	}{
		{"idle", true},
		{"cost-declared", false},
		{"data1-complete", false},
		{"update-received", false},
		{"copies-forwarded", false},
		{"tables-recomputed", false},
		{"mirrors-current", false},
		{"state-reported", false},
		{"green-lit", false},
		{"payments-reported", false},
		{"settled", false},
	}
	for _, s := range states {
		m.AddState(s.name, s.initial)
	}

	actions := []Action{
		// First construction phase.
		{Name: "declare-transit-cost", Kind: InfoRevelation}, // DATA1 seed
		{Name: "relay-cost-announcements", Kind: MessagePassing},
		// Second construction phase ([PRINC1]/[PRINC2]).
		{Name: "receive-neighbor-update", Kind: Internal},
		{Name: "forward-copies-to-checkers", Kind: MessagePassing},
		{Name: "recompute-and-advertise-tables", Kind: Computation},
		// Checker role ([CHECK1]/[CHECK2]).
		{Name: "mirror-principal-computation", Kind: Computation},
		// Checkpoint ([BANK1]/[BANK2]).
		{Name: "report-state-hashes", Kind: Computation},
		{Name: "await-green-light", Kind: Internal},
		// Execution phase.
		{Name: "report-payments", Kind: Computation},
		{Name: "settle", Kind: Internal},
	}
	for _, a := range actions {
		if err := m.AddAction(a); err != nil {
			return nil, nil, fmt.Errorf("spec: build FPSS model: %w", err)
		}
	}

	transitions := []Transition{
		{From: "idle", Action: "declare-transit-cost", To: "cost-declared"},
		{From: "cost-declared", Action: "relay-cost-announcements", To: "data1-complete"},
		{From: "data1-complete", Action: "receive-neighbor-update", To: "update-received"},
		{From: "update-received", Action: "forward-copies-to-checkers", To: "copies-forwarded"},
		{From: "copies-forwarded", Action: "recompute-and-advertise-tables", To: "tables-recomputed"},
		{From: "tables-recomputed", Action: "mirror-principal-computation", To: "mirrors-current"},
		{From: "mirrors-current", Action: "report-state-hashes", To: "state-reported"},
		{From: "state-reported", Action: "await-green-light", To: "green-lit"},
		{From: "green-lit", Action: "report-payments", To: "payments-reported"},
		{From: "payments-reported", Action: "settle", To: "settled"},
	}
	for _, tr := range transitions {
		if err := m.AddTransition(tr); err != nil {
			return nil, nil, fmt.Errorf("spec: build FPSS model: %w", err)
		}
	}

	sp := NewSpecification(m)
	suggested := map[State]string{
		"idle":              "declare-transit-cost",
		"cost-declared":     "relay-cost-announcements",
		"data1-complete":    "receive-neighbor-update",
		"update-received":   "forward-copies-to-checkers",
		"copies-forwarded":  "recompute-and-advertise-tables",
		"tables-recomputed": "mirror-principal-computation",
		"mirrors-current":   "report-state-hashes",
		"state-reported":    "await-green-light",
		"green-lit":         "report-payments",
		"payments-reported": "settle",
	}
	for s, a := range suggested {
		if err := sp.Suggest(s, a); err != nil {
			return nil, nil, fmt.Errorf("spec: build FPSS model: %w", err)
		}
	}
	if err := sp.Validate(); err != nil {
		return nil, nil, fmt.Errorf("spec: FPSS model invalid: %w", err)
	}
	return m, sp, nil
}

// ExtendedFPSSPhases returns the checkpointed phase structure of the
// extended specification with per-phase deviation surfaces: each
// externally visible action admits drop / change / spoof alternatives
// (§4.3's manipulation triple).
func ExtendedFPSSPhases(nodes int) []Phase {
	if nodes < 1 {
		nodes = 1
	}
	return []Phase{
		// Construction phase 1: one declaration plus up to n−1 relays
		// per node.
		{DeviationPoints: nodes, Alternatives: 3},
		// Construction phase 2: forwards, recomputations and
		// advertisements.
		{DeviationPoints: 3 * nodes, Alternatives: 3},
		// Execution: payment reporting and packet forwarding.
		{DeviationPoints: 2 * nodes, Alternatives: 3},
	}
}
