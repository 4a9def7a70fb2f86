package rational

import (
	"fmt"
	"sync"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/settle"
	"repro/internal/sim"
)

// faithfulStateReport aliases the bank's report type for hook literals.
type faithfulStateReport = bank.StateReport

// Params are the shared economic parameters of a scenario.
type Params struct {
	Traffic            fpss.Traffic
	DeliveryValue      int64
	UndeliveredPenalty int64
	// Scheme selects the plain-FPSS pricing rule (VCG by default).
	Scheme fpss.PricingScheme
	// CheckerLimit caps checkers per principal in the faithful
	// protocol (0 = all neighbors; ablation E11).
	CheckerLimit int
	// Loss installs a seeded per-link drop model on every protocol run
	// (zero value = reliable network). An enabled model also unlocks
	// the loss-exploiting deviation family in the catalogue.
	Loss sim.LossModel
	// Settle shards the trusted bank and clears each execution phase
	// through the crash-tolerant 2PC settlement (zero value = the
	// classic singleton bank, axis off). An enabled axis also unlocks
	// the shard-window deviation family in the catalogue.
	Settle settle.Options
}

// DefaultParams returns sane experiment parameters for a graph.
func DefaultParams(g *graph.Graph) Params {
	return Params{
		Traffic:            fpss.AllToAllTraffic(g.N(), 1),
		DeliveryValue:      10_000,
		UndeliveredPenalty: 10_000,
		Scheme:             fpss.SchemeVCG,
	}
}

// scenario is the truthful per-scenario state shared read-only by
// every (node, deviation) play on one System: the deviation catalogue,
// the node list and the true-cost table. It is computed once, lazily,
// and must never be mutated afterwards — that is what makes a System's
// Play safe for the concurrent plays a multi-worker core.CheckConfig
// fans out.
type scenario struct {
	once      sync.Once
	cat       []core.Deviation
	nodes     []core.NodeID
	trueCosts fpss.CostTable
}

func (s *scenario) init(g *graph.Graph, p Params, forFaithful bool) {
	s.once.Do(func() {
		n := g.N()
		cat := Catalogue(forFaithful)
		if p.Loss.Enabled() {
			// Loss-exploiting deviations only make sense when there is
			// real loss to hide behind; a reliable scenario keeps its
			// pre-loss catalogue byte-identical.
			cat = append(cat, LossCatalogue(forFaithful)...)
		}
		if p.Settle.Enabled() {
			// Shard-window deviations need a sharded settlement to
			// attack; a singleton-bank scenario likewise keeps its
			// catalogue byte-identical.
			cat = append(cat, ShardCatalogue(forFaithful)...)
		}
		s.cat = make([]core.Deviation, 0, len(cat))
		for _, d := range cat {
			s.cat = append(s.cat, d)
		}
		s.nodes = make([]core.NodeID, n)
		s.trueCosts = make(fpss.CostTable, n)
		for i := 0; i < n; i++ {
			s.nodes[i] = core.NodeID(i)
			s.trueCosts[graph.NodeID(i)] = g.Cost(graph.NodeID(i))
		}
	})
}

// Systems builds the plain and faithful System pair for one scenario:
// the same graph and economic parameters played against the original
// FPSS protocol and against the paper's extended specification. This
// is the constructor the scenario layer compiles into — prefer it to
// struct literals so both sides are guaranteed to share one setup.
func Systems(g *graph.Graph, p Params) (*PlainSystem, *FaithfulSystem) {
	return &PlainSystem{Graph: g, Params: p}, &FaithfulSystem{Graph: g, Params: p}
}

// PlainSystem plays deviations against the *original* FPSS protocol:
// obedient network assumed by FPSS, no checkers, accounting that
// trusts reported payments. It implements core.System; Play is safe
// for concurrent calls (scenario state is read-only once built), so
// it composes with a multi-worker check.
type PlainSystem struct {
	Graph  *graph.Graph
	Params Params

	scen scenario

	// seed, when set, supplies the honest converged construction tables
	// centrally so Snapshot can skip the protocol simulation. See
	// SeedHonest.
	seed *fpss.Solution

	// Truthful snapshot (stateful.go), built once on first Snapshot.
	snapOnce sync.Once
	snap     *plainState
	snapErr  error
}

// SeedHonest supplies the honest converged construction tables —
// fpss.ComputeCentral output for this system's graph — letting the
// truthful Snapshot skip the protocol simulation. The central solution
// is byte-identical to the converged protocol tables (pinned by the
// fpss differential tests), so seeded and simulated snapshots are
// indistinguishable. Must be called before the first Snapshot; ignored
// under an enabled loss model, where the simulation's convergence
// bookkeeping stays authoritative. The solution must be immutable.
func (s *PlainSystem) SeedHonest(sol *fpss.Solution) { s.seed = sol }

var _ core.System = (*PlainSystem)(nil)

// Nodes implements core.System.
func (s *PlainSystem) Nodes() []core.NodeID {
	s.scen.init(s.Graph, s.Params, false)
	return s.scen.nodes
}

// Deviations implements core.System. The returned slice is shared and
// read-only.
func (s *PlainSystem) Deviations(core.NodeID) []core.Deviation {
	s.scen.init(s.Graph, s.Params, false)
	return s.scen.cat
}

// play runs the whole protocol — construction, execution and, for a
// settle deviation, settlement — with d active at deviator (d == nil
// runs the suggested specification). It is Play's fallback for
// deviations the snapshot cannot overlay.
func (s *PlainSystem) play(deviator core.NodeID, d *Deviation) (core.Outcome, error) {
	s.scen.init(s.Graph, s.Params, false)
	res, err := s.replay(deviator, d)
	if err != nil {
		return core.Outcome{}, err
	}
	// The outcome copies what it keeps, so the run's arenas go back to
	// the pools once it is built.
	defer res.Release()
	var reportHooks map[graph.NodeID]func(fpss.PaymentList) fpss.PaymentList
	if d != nil && deviator >= 0 && d.reportPayment != nil {
		reportHooks = reportHook(deviator, d)
	}
	exec, err := s.executeOn(plainViews(res), reportHooks)
	if err != nil {
		return core.Outcome{}, err
	}
	out := execOutcome(exec)
	if d != nil && deviator >= 0 && d.settle != nil && s.Params.Settle.Enabled() {
		s.applySettlement(&out, settleBatch(exec), deviator, d)
	}
	return out, nil
}

// replay runs both construction phases with d's protocol hooks active
// at deviator (d == nil runs the suggested specification).
func (s *PlainSystem) replay(deviator core.NodeID, d *Deviation) (*fpss.Result, error) {
	var strategies map[graph.NodeID]*fpss.Strategy
	if d != nil && deviator >= 0 && d.protocol != nil {
		node := graph.NodeID(deviator)
		strategies = map[graph.NodeID]*fpss.Strategy{node: d.protocol(Ctx{Graph: s.Graph, Node: node})}
	}
	res, err := fpss.Run(fpss.Config{Graph: s.Graph, Strategies: strategies, Loss: s.Params.Loss})
	if err != nil {
		return nil, fmt.Errorf("plain run: %w", err)
	}
	return res, nil
}

// FaithfulSystem plays deviations against the paper's extended FPSS
// specification. It implements core.System; like PlainSystem, Play is
// safe for concurrent calls.
type FaithfulSystem struct {
	Graph  *graph.Graph
	Params Params

	scen scenario

	// seed, when set, supplies the honest converged construction tables
	// centrally so Snapshot can skip the protocol simulation. See
	// SeedHonest.
	seed *fpss.Solution

	// Truthful snapshot (stateful.go), built once on first Snapshot.
	snapOnce sync.Once
	snap     *faithfulState
	snapErr  error
}

// SeedHonest supplies the honest converged construction tables so the
// truthful Snapshot can synthesize the certified post-checkpoint state
// directly: an honest run always passes the bank checkpoint, and its
// outcome is exactly the execution phase plus a clean audit over these
// tables. Must be called before the first Snapshot; ignored under an
// enabled loss model (loss attribution and retry accounting belong to
// the simulation). The solution must be immutable.
func (s *FaithfulSystem) SeedHonest(sol *fpss.Solution) { s.seed = sol }

var _ core.System = (*FaithfulSystem)(nil)

// Nodes implements core.System.
func (s *FaithfulSystem) Nodes() []core.NodeID {
	s.scen.init(s.Graph, s.Params, true)
	return s.scen.nodes
}

// Deviations implements core.System. The returned slice is shared and
// read-only.
func (s *FaithfulSystem) Deviations(core.NodeID) []core.Deviation {
	s.scen.init(s.Graph, s.Params, true)
	return s.scen.cat
}

// play runs the whole extended protocol with d active at deviator
// (see PlainSystem.play).
func (s *FaithfulSystem) play(deviator core.NodeID, d *Deviation) (core.Outcome, error) {
	s.scen.init(s.Graph, s.Params, true)
	res, err := s.replay(deviator, d)
	if err != nil {
		return core.Outcome{}, err
	}
	defer res.Release() // see PlainSystem.play
	out := outcomeOf(res)
	// Settlement clears only what the execution phase produced: a run
	// the bank refused to green-light settles nothing.
	if d != nil && deviator >= 0 && d.settle != nil && s.Params.Settle.Enabled() && res.Exec != nil {
		if err := s.applySettlement(&out, settleBatch(res.Exec), deviator, d); err != nil {
			return core.Outcome{}, err
		}
	}
	return out, nil
}

// replay runs the whole extended protocol, execution phase and payment
// audit included, with d active at deviator (see PlainSystem.replay).
func (s *FaithfulSystem) replay(deviator core.NodeID, d *Deviation) (*faithful.Result, error) {
	var strategies map[graph.NodeID]*faithful.Strategy
	if d != nil && deviator >= 0 {
		node := graph.NodeID(deviator)
		ctx := Ctx{Graph: s.Graph, Node: node}
		st := &faithful.Strategy{}
		if d.checker != nil {
			if built := d.checker(ctx); built != nil {
				st = built
			}
		}
		if d.protocol != nil {
			if p := d.protocol(ctx); p != nil {
				st.Protocol = *p
			}
		}
		if d.reportPayment != nil {
			st.ReportPayment = d.reportPayment
		}
		strategies = map[graph.NodeID]*faithful.Strategy{node: st}
	}
	res, err := faithful.Run(s.runConfig(strategies))
	if err != nil {
		return nil, fmt.Errorf("faithful run: %w", err)
	}
	return res, nil
}
