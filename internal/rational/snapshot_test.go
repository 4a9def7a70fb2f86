package rational_test

import (
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rational"
	"repro/internal/scenario"
)

// alienState is a snapshot that no system took.
type alienState struct{}

func (alienState) Baseline() core.Outcome { return core.Outcome{} }

// TestForeignSnapshotRejected: a snapshot another system took — a
// churn timeline's, or one of no system at all — is an error for Play,
// not a cue to re-run the protocol from scratch.
func TestForeignSnapshotRejected(t *testing.T) {
	g := graph.Figure1()
	tl, err := churn.Build(scenario.Spec{Family: scenario.Random, N: 5, Seed: 2,
		Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := churn.NewSystem(tl, churn.Plain).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	foreign := []core.TruthfulState{alienState{}, st}
	plain, faith := rational.Systems(g, rational.DefaultParams(g))
	for _, sys := range []core.System{plain, faith} {
		dev := sys.Deviations(0)[0]
		for _, st := range foreign {
			if _, err := sys.Play(nil, st, 0, dev); err == nil {
				t.Errorf("%T played against a %T snapshot", sys, st)
			}
		}
	}
}
