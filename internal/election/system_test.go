package election

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spec"
)

// String implements fmt.Stringer. Only tests print a Variant.
func (v Variant) String() string {
	switch v {
	case Naive:
		return "naive"
	case Faithful:
		return "faithful"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// System adapts an election scenario to core.System for the deviation
// search that these tests run. Experiment E8 calls Run directly, so no
// binary links it.
type System struct {
	Cfg Config
}

var _ core.System = (*System)(nil)

// Nodes implements core.System.
func (s *System) Nodes() []core.NodeID {
	out := make([]core.NodeID, s.Cfg.Topology.N())
	for i := range out {
		out[i] = core.NodeID(i)
	}
	return out
}

// deviation adapts Strategy builders to core.Deviation.
type deviation struct {
	name    string
	classes []spec.ActionKind
	build   func(node graph.NodeID) *Strategy
}

func (d *deviation) Name() string               { return d.name }
func (d *deviation) Classes() []spec.ActionKind { return d.classes }

// Deviations implements core.System.
func (s *System) Deviations(core.NodeID) []core.Deviation {
	return electionCatalogue()
}

// electionState is the honest election's outcome.
type electionState struct{ base core.Outcome }

// Baseline implements core.TruthfulState.
func (st electionState) Baseline() core.Outcome { return st.base }

// Snapshot implements core.System: one honest election.
func (s *System) Snapshot() (core.TruthfulState, error) {
	base, err := s.Play(nil, nil, -1, nil)
	if err != nil {
		return nil, err
	}
	return electionState{base}, nil
}

// Play implements core.System by re-running the election with the
// deviator's strategy: an election is a single cheap round, so there
// is no state worth overlaying and the snapshot is not consulted.
func (s *System) Play(_ *core.PlayContext, _ core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	var strategies map[graph.NodeID]*Strategy
	if dev != nil && deviator >= 0 {
		d, ok := dev.(*deviation)
		if !ok {
			return core.Outcome{}, fmt.Errorf("election: foreign deviation %q", dev.Name())
		}
		strategies = map[graph.NodeID]*Strategy{graph.NodeID(deviator): d.build(graph.NodeID(deviator))}
	}
	res, err := Run(s.Cfg, strategies)
	if err != nil {
		return core.Outcome{}, err
	}
	out := core.Outcome{Utilities: make(map[core.NodeID]int64, len(res.Utilities)), Completed: res.Completed}
	for id, u := range res.Utilities {
		out.Utilities[core.NodeID(id)] = u
	}
	return out, nil
}
