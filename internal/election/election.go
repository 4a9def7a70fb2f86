// Package election implements the paper's motivating example (§3): a
// leader election that should select the most computationally powerful
// node to run a CPU-intensive task. The naive specification asks nodes
// to report their power truthfully and elects the maximum — but
// serving is costly, so a rational node underreports to dodge the job
// and the protocol "fails to elect the most powerful node."
//
// The faithful variant applies the paper's recipe: the choice rule is
// re-cast as a Vickrey procurement (serving cost is private; the
// cheapest server — equivalently the most powerful node — wins and is
// paid the second-lowest declared cost), reports are flooded over the
// biconnected network so every node holds the full report set, and a
// checkpointing bank compares report-set hashes before certifying the
// outcome, neutralizing message-passing and computation deviations.
package election

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Variant selects the specification under test.
type Variant int

const (
	// Naive is the §3 strawman: truthful max-power election, no
	// payments, no checking.
	Naive Variant = iota + 1
	// Faithful is the incentive-engineered variant.
	Faithful
)

// String implements fmt.Stringer.
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

// Config describes one election scenario.
type Config struct {
	// Topology is the (biconnected) communication graph; transit costs
	// are ignored here, only connectivity matters.
	Topology *graph.Graph
	// Powers are the true computational powers θ_i ≥ 1.
	Powers []int64
	// Variant selects naive or faithful rules.
	Variant Variant
	// ServiceValue is each node's value per unit of the leader's true
	// power (everyone benefits from a powerful leader).
	ServiceValue int64
	// CostScale sets the serving cost: cost_i = CostScale / θ_i.
	CostScale int64
	// NonProgressPenalty applies when the bank refuses to certify.
	NonProgressPenalty int64
}

// maxSteps bounds the flood's deliveries.
const maxSteps = 1 << 18

// ServingCost returns node i's true cost of serving as leader.
func (c Config) ServingCost(i int) int64 {
	if c.Powers[i] <= 0 {
		return c.CostScale
	}
	return c.CostScale / c.Powers[i]
}

// Report is the flooded information-revelation message. Under the
// naive variant nodes report power; under the faithful variant they
// report serving cost. One scalar field serves both.
type Report struct {
	Origin graph.NodeID
	Value  int64
}

// Size implements sim.Sizer.
func (Report) Size() int { return 2 }

// Strategy is a node's deviation surface in the election protocol.
type Strategy struct {
	// Declare maps the truthful report value to the declared one.
	Declare func(truth int64) int64
	// Relay intercepts flooded reports about others; ok=false drops.
	Relay func(to graph.NodeID, r Report) (Report, bool)
}

func (s *Strategy) declare(truth int64) int64 {
	if s == nil || s.Declare == nil {
		return truth
	}
	return s.Declare(truth)
}

func (s *Strategy) relay(to graph.NodeID, r Report) (Report, bool) {
	if s == nil || s.Relay == nil {
		return r, true
	}
	return s.Relay(to, r)
}

// node floods its report and collects everyone else's.
type node struct {
	id        graph.NodeID
	truth     int64
	neighbors []graph.NodeID
	strategy  *Strategy
	reports   map[graph.NodeID]int64
}

var _ sim.Handler = (*node)(nil)

func (n *node) Init(ctx sim.Context) {
	declared := n.strategy.declare(n.truth)
	n.reports[n.id] = declared
	r := Report{Origin: n.id, Value: declared}
	for _, v := range n.neighbors {
		ctx.Send(sim.Addr(v), r)
	}
}

func (n *node) Recv(ctx sim.Context, msg sim.Message) {
	r, ok := msg.Payload.(Report)
	if !ok {
		return
	}
	if _, known := n.reports[r.Origin]; known {
		return
	}
	n.reports[r.Origin] = r.Value
	for _, v := range n.neighbors {
		relayed, ok := n.strategy.relay(v, r)
		if !ok {
			continue
		}
		ctx.Send(sim.Addr(v), relayed)
	}
}

// reportSetEqual compares two collected report sets.
func reportSetEqual(a, b map[graph.NodeID]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// Result is the outcome of one election run.
type Result struct {
	// Leader is the elected node (valid only when Completed).
	Leader graph.NodeID
	// Payment is the faithful variant's Vickrey payment to the leader.
	Payment int64
	// Utilities per node, at true types.
	Utilities map[graph.NodeID]int64
	// Completed is false when the bank found divergent report sets.
	Completed bool
}

// Run executes the election: flood reports to quiescence, bank-style
// comparison of every node's collected report set (any divergence ⇒
// restart ⇒ non-progress), then the variant's choice and payment rule
// applied to the certified set.
func Run(cfg Config, strategies map[graph.NodeID]*Strategy) (*Result, error) {
	if cfg.Topology == nil {
		return nil, errors.New("election: nil topology")
	}
	n := cfg.Topology.N()
	if len(cfg.Powers) != n {
		return nil, fmt.Errorf("election: %d powers for %d nodes", len(cfg.Powers), n)
	}
	net := sim.NewNetwork()
	nodes := make([]*node, n)
	for i := 0; i < n; i++ {
		truth := cfg.Powers[i]
		if cfg.Variant == Faithful {
			truth = cfg.ServingCost(i)
		}
		nodes[i] = &node{
			id:        graph.NodeID(i),
			truth:     truth,
			neighbors: cfg.Topology.Neighbors(graph.NodeID(i)),
			strategy:  strategies[graph.NodeID(i)],
			reports:   make(map[graph.NodeID]int64, n),
		}
		if err := net.Attach(sim.Addr(i), nodes[i]); err != nil {
			return nil, err
		}
	}
	if _, err := net.Run(maxSteps); err != nil {
		return nil, fmt.Errorf("flood: %w", err)
	}

	res := &Result{Utilities: make(map[graph.NodeID]int64, n)}
	// Bank checkpoint: all report sets must agree and be complete.
	for i := 1; i < n; i++ {
		if !reportSetEqual(nodes[0].reports, nodes[i].reports) {
			for j := 0; j < n; j++ {
				res.Utilities[graph.NodeID(j)] = -cfg.NonProgressPenalty
			}
			return res, nil
		}
	}
	if len(nodes[0].reports) != n {
		for j := 0; j < n; j++ {
			res.Utilities[graph.NodeID(j)] = -cfg.NonProgressPenalty
		}
		return res, nil
	}
	certified := nodes[0].reports
	res.Completed = true

	switch cfg.Variant {
	case Faithful:
		res.Leader, res.Payment = vickreyProcurement(certified)
	default:
		res.Leader = maxPowerWinner(certified)
	}
	leaderPower := cfg.Powers[res.Leader]
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		u := cfg.ServiceValue * leaderPower
		if id == res.Leader {
			u -= cfg.ServingCost(i)
			u += res.Payment
		}
		res.Utilities[id] = u
	}
	return res, nil
}

// maxPowerWinner is the naive rule: highest declared power, lowest ID
// on ties.
func maxPowerWinner(reports map[graph.NodeID]int64) graph.NodeID {
	ids := sortedIDs(reports)
	best := ids[0]
	for _, id := range ids[1:] {
		if reports[id] > reports[best] {
			best = id
		}
	}
	return best
}

// vickreyProcurement is the faithful rule: lowest declared serving
// cost wins (lowest ID on ties) and is paid the second-lowest declared
// cost — a strategyproof reverse auction.
func vickreyProcurement(reports map[graph.NodeID]int64) (graph.NodeID, int64) {
	ids := sortedIDs(reports)
	winner := ids[0]
	for _, id := range ids[1:] {
		if reports[id] < reports[winner] {
			winner = id
		}
	}
	second := int64(-1)
	for _, id := range ids {
		if id == winner {
			continue
		}
		if second < 0 || reports[id] < second {
			second = reports[id]
		}
	}
	if second < 0 {
		second = reports[winner]
	}
	return winner, second
}

func sortedIDs(m map[graph.NodeID]int64) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// System adapts an election scenario to core.System for the deviation
// search. Its tests run the search over it; experiment E8 calls Run
// directly.
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
	core.BasicDeviation
	build func(node graph.NodeID) *Strategy
}

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
