package election

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spec"
)

// electionCatalogue enumerates the unilateral deviations a rational
// node can attempt in the election protocol.
func electionCatalogue() []core.Deviation {
	return []core.Deviation{
		&deviation{
			name:    "underreport",
			classes: []spec.ActionKind{spec.InfoRevelation},
			build: func(graph.NodeID) *Strategy {
				return &Strategy{Declare: func(truth int64) int64 {
					if truth <= 1 {
						return 1
					}
					return truth / 4
				}}
			},
		},
		&deviation{
			name:    "overreport",
			classes: []spec.ActionKind{spec.InfoRevelation},
			build: func(graph.NodeID) *Strategy {
				return &Strategy{Declare: func(truth int64) int64 { return truth * 4 }}
			},
		},
		&deviation{
			name:    "report-zero",
			classes: []spec.ActionKind{spec.InfoRevelation},
			build: func(graph.NodeID) *Strategy {
				return &Strategy{Declare: func(int64) int64 { return 0 }}
			},
		},
		&deviation{
			name:    "report-huge",
			classes: []spec.ActionKind{spec.InfoRevelation},
			build: func(graph.NodeID) *Strategy {
				return &Strategy{Declare: func(int64) int64 { return 1 << 30 }}
			},
		},
		&deviation{
			name:    "drop-relays",
			classes: []spec.ActionKind{spec.MessagePassing},
			build: func(graph.NodeID) *Strategy {
				return &Strategy{Relay: func(graph.NodeID, Report) (Report, bool) {
					return Report{}, false
				}}
			},
		},
		&deviation{
			name:    "tamper-relays",
			classes: []spec.ActionKind{spec.MessagePassing},
			build: func(self graph.NodeID) *Strategy {
				return &Strategy{Relay: func(_ graph.NodeID, r Report) (Report, bool) {
					if r.Origin != self {
						r.Value += 1000
					}
					return r, true
				}}
			},
		},
		&deviation{
			name:    "joint-underreport-tamper",
			classes: []spec.ActionKind{spec.InfoRevelation, spec.MessagePassing},
			build: func(self graph.NodeID) *Strategy {
				return &Strategy{
					Declare: func(truth int64) int64 { return truth / 4 },
					Relay: func(_ graph.NodeID, r Report) (Report, bool) {
						if r.Origin != self {
							r.Value *= 2
						}
						return r, true
					},
				}
			},
		},
	}
}
