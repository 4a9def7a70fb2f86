package rational_test

import (
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/graph"
	"repro/internal/rational"
	"repro/internal/scenario"
)

// TestForeignSnapshotRejected: a snapshot another system took — an
// election's or a churn timeline's — is an error for Play, not a cue
// to re-run the protocol from scratch.
func TestForeignSnapshotRejected(t *testing.T) {
	g := graph.Figure1()
	elect := &election.System{Cfg: election.Config{
		Topology: g, Powers: []int64{3, 9, 5, 2, 7, 4}, Variant: election.Faithful,
		ServiceValue: 1, CostScale: 1200, NonProgressPenalty: 100_000,
	}}
	tl, err := churn.Build(scenario.Spec{Family: scenario.Random, N: 5, Seed: 2,
		Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var foreign []core.TruthfulState
	for _, sys := range []core.System{elect, churn.NewSystem(tl, churn.Plain)} {
		st, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		foreign = append(foreign, st)
	}
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
