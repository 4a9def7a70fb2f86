package fpss

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// BankAddr is the simulator address reserved for the bank / external
// coordinator (it is not a graph node).
const BankAddr sim.Addr = 1 << 20

// maxSteps bounds each phase's event deliveries.
const maxSteps = 1 << 20

// Config describes one protocol run.
type Config struct {
	// Graph carries the true topology and true transit costs.
	Graph *graph.Graph
	// Strategies maps nodes to deviations; missing entries (or nil)
	// follow the suggested specification.
	Strategies map[graph.NodeID]*Strategy
	// Loss installs a seeded per-link drop model with a bounded retry
	// envelope (see sim.LossModel). The zero value is a reliable
	// network. Permanent losses surface in the phase counters' Lost
	// field; callers that need loss-vs-deviation attribution check it.
	Loss sim.LossModel
}

// Result is the outcome of running both construction phases.
type Result struct {
	Nodes  map[graph.NodeID]*Node
	Phase1 sim.Counters
	Phase2 sim.Counters
}

// TotalMessages returns the protocol message count across phases.
func (r *Result) TotalMessages() int64 { return r.Phase2.Sent } // Phase2 counters are cumulative

// Run executes the original FPSS distributed protocol: phase 1 (cost
// flood → DATA1) to quiescence, then phase 2 (routing and pricing
// iteration → DATA2/DATA3*) to quiescence. The returned counters are
// cumulative snapshots taken at each phase boundary.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		return nil, errors.New("fpss: nil graph")
	}
	// A pooled network: deviation searches call Run once per
	// (node, deviation) play, and recycling the handler tables and
	// event-queue storage keeps that loop off the allocator.
	net := sim.AcquireNetwork()
	defer net.Release()
	if cfg.Loss.Enabled() {
		net.SetLoss(cfg.Loss)
	}
	nodes := make(map[graph.NodeID]*Node, cfg.Graph.N())
	for i := 0; i < cfg.Graph.N(); i++ {
		id := graph.NodeID(i)
		// AdjView shares the graph's CSR row; NewNode copies it.
		node := NewNode(id, cfg.Graph.Cost(id), cfg.Graph.AdjView(id), cfg.Strategies[id])
		nodes[id] = node
		if err := net.Attach(sim.Addr(id), node); err != nil {
			return nil, fmt.Errorf("attach %d: %w", id, err)
		}
	}
	phase1, err := net.Run(maxSteps)
	if err != nil {
		return nil, fmt.Errorf("phase 1: %w", err)
	}
	for i := 0; i < cfg.Graph.N(); i++ {
		net.Inject(BankAddr, sim.Addr(i), StartPhase2{})
	}
	phase2, err := net.Resume(maxSteps)
	if err != nil {
		return nil, fmt.Errorf("phase 2: %w", err)
	}
	return &Result{Nodes: nodes, Phase1: phase1, Phase2: phase2}, nil
}
