package rational

import (
	"fmt"
	"maps"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/settle"
	"repro/internal/sign"
)

// This file implements core.System's Snapshot and Play for both
// protocol systems: the truthful run is snapshotted once per scenario
// (converged table views, honest outcome, obligations, audit bank) and
// every deviant play overlays it — execution-phase-only deviations
// skip the protocol simulation entirely, and every other play replays
// the whole protocol on a network and bank from the sim and faithful
// package pools.

// plainState is PlainSystem's truthful snapshot: the honest converged
// table views, declared costs, honest outcome, and each source's
// honest obligation total (the static profit ceiling of a payment
// underreport). Immutable once built; shared by every worker.
type plainState struct {
	base     core.Outcome
	routing  map[graph.NodeID]fpss.RoutingTable
	pricing  map[graph.NodeID]fpss.PricingTable
	declared fpss.CostTable
	owed     map[graph.NodeID]int64
	// batch is the honest settlement workload (nil unless the shard
	// axis is enabled) — shared by every settle-only play.
	batch *settle.Batch
}

// Baseline implements core.TruthfulState.
func (st *plainState) Baseline() core.Outcome { return st.base }

var _ core.Bounder = (*PlainSystem)(nil)

// Snapshot implements core.System: one honest protocol run,
// retained. Idempotent — the snapshot is computed once per system and
// shared (it is read-only), so Bounder and repeated checks reuse it.
func (s *PlainSystem) Snapshot() (core.TruthfulState, error) {
	s.scen.init(s.Graph, s.Params, false)
	s.snapOnce.Do(func() {
		var st *plainState
		if sol := s.seed; sol != nil && !s.Params.Loss.Enabled() {
			// Seeded: the central solution is the converged honest
			// construction (honest nodes declare true costs), so the
			// snapshot shares its immutable tables outright and only the
			// execution tail below runs.
			st = &plainState{
				routing:  sol.Routing,
				pricing:  sol.Pricing,
				declared: sol.Costs,
				owed:     make(map[graph.NodeID]int64, len(sol.Costs)),
			}
		} else {
			res, err := fpss.Run(fpss.Config{Graph: s.Graph, Loss: s.Params.Loss})
			if err != nil {
				s.snapErr = fmt.Errorf("plain run: %w", err)
				return
			}
			st = plainViews(res)
			st.owed = make(map[graph.NodeID]int64, len(res.Nodes))
		}
		exec, err := s.executeOn(st, nil)
		if err != nil {
			s.snapErr = err
			return
		}
		st.base = execOutcome(exec)
		for id, ob := range exec.Obligations {
			st.owed[id] = ob.Total()
		}
		if s.Params.Settle.Enabled() {
			st.batch = settleBatch(exec)
		}
		s.snap = st
	})
	if s.snapErr != nil {
		return nil, s.snapErr
	}
	return s.snap, nil
}

// plainViews captures a finished run's converged tables and declared
// costs. The network is quiescent and execution only reads them, so
// they are views, not clones.
func plainViews(res *fpss.Result) *plainState {
	n := len(res.Nodes)
	st := &plainState{
		routing:  make(map[graph.NodeID]fpss.RoutingTable, n),
		pricing:  make(map[graph.NodeID]fpss.PricingTable, n),
		declared: make(fpss.CostTable, n),
	}
	for id, node := range res.Nodes {
		st.routing[id] = node.RoutingView()
		st.pricing[id] = node.PricingView()
		st.declared[id] = node.DeclaredCost()
	}
	return st
}

// executeOn runs execution-phase accounting over a run's tables — the
// shared tail of Snapshot, the exec-only fast path and a full replay.
func (s *PlainSystem) executeOn(st *plainState, hooks map[graph.NodeID]func(fpss.PaymentList) fpss.PaymentList) (*fpss.ExecResult, error) {
	exec, err := fpss.Execute(st.routing, st.pricing, fpss.ExecConfig{
		TrueCosts:          s.scen.trueCosts,
		DeclaredCosts:      st.declared,
		Traffic:            s.Params.Traffic,
		DeliveryValue:      s.Params.DeliveryValue,
		UndeliveredPenalty: s.Params.UndeliveredPenalty,
		Scheme:             s.Params.Scheme,
		ReportPayment:      hooks,
	})
	if err != nil {
		return nil, fmt.Errorf("plain execute: %w", err)
	}
	return exec, nil
}

// Play implements core.System. Execution-only deviations (payment
// misreports) overlay the snapshot without re-running the protocol —
// the honest construction is deterministic, so the result is
// byte-identical to a full replay. Everything else replays the whole
// protocol. A snapshot this system did not take is an error.
func (s *PlainSystem) Play(_ *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	snap, ok := st.(*plainState)
	if !ok {
		return core.Outcome{}, foreignSnapshot(st)
	}
	if deviator < 0 || dev == nil {
		return snap.base, nil
	}
	d, ok := dev.(*Deviation)
	if !ok {
		return core.Outcome{}, fmt.Errorf("rational: foreign deviation %q", dev.Name())
	}
	if d.ExecOnly() {
		exec, err := s.executeOn(snap, reportHook(deviator, d))
		if err != nil {
			return core.Outcome{}, err
		}
		return execOutcome(exec), nil
	}
	if d.SettleOnly() && snap.batch != nil {
		// The construction and execution phases stay honest: overlay
		// the deviant settlement on the snapshot's batch directly.
		out := overlayBase(snap.base)
		s.applySettlement(&out, snap.batch, deviator, d)
		return out, nil
	}
	return s.play(deviator, d)
}

// ProfitUpperBound implements core.Bounder: a catalogue-built payment
// underreport can pocket at most what the deviator honestly owes its
// transit nodes — everything else in its utility is untouched by an
// execution-phase-only deviation. Other deviations get no bound.
func (s *PlainSystem) ProfitUpperBound(deviator core.NodeID, dev core.Deviation) (int64, bool) {
	d, ok := dev.(*Deviation)
	if !ok || !d.boundedExec {
		return 0, false
	}
	st, err := s.Snapshot()
	if err != nil {
		return 0, false
	}
	snap := st.(*plainState)
	base, ok := snap.base.Utilities[deviator]
	if !ok {
		return 0, false
	}
	return base + snap.owed[graph.NodeID(deviator)], true
}

// execOutcome maps plain execution-phase accounting onto a
// core.Outcome.
func execOutcome(exec *fpss.ExecResult) core.Outcome {
	out := core.Outcome{Utilities: make(map[core.NodeID]int64, len(exec.Utilities)), Completed: true}
	for id, u := range exec.Utilities {
		out.Utilities[core.NodeID(id)] = u
	}
	return out
}

// overlayBase starts a settle-only overlay from the snapshot's
// baseline: a copy of its utilities, for the settlement to adjust, and
// its completion flag.
func overlayBase(base core.Outcome) core.Outcome {
	return core.Outcome{Utilities: maps.Clone(base.Utilities), Completed: base.Completed}
}

// reportHook is the DATA4 hook map of a play in which only the
// deviator misreports its payments.
func reportHook(deviator core.NodeID, d *Deviation) map[graph.NodeID]func(fpss.PaymentList) fpss.PaymentList {
	return map[graph.NodeID]func(fpss.PaymentList) fpss.PaymentList{graph.NodeID(deviator): d.reportPayment}
}

// foreignSnapshot is Play's error for a snapshot another system took.
func foreignSnapshot(st core.TruthfulState) error {
	return fmt.Errorf("rational: foreign snapshot %T", st)
}

// faithfulState is FaithfulSystem's truthful snapshot: the honest
// outcome plus the certified post-construction state (tables and
// audit bank) when the honest run was green-lit.
type faithfulState struct {
	base core.Outcome
	exec faithful.ExecState
	ok   bool // exec is valid (honest run completed undetected)
	// batch is the honest settlement workload (nil unless the shard
	// axis is enabled and the honest run was certified).
	batch *settle.Batch
}

// Baseline implements core.TruthfulState.
func (st *faithfulState) Baseline() core.Outcome { return st.base }

var _ core.Bounder = (*FaithfulSystem)(nil)

// Snapshot implements core.System (see PlainSystem.Snapshot).
func (s *FaithfulSystem) Snapshot() (core.TruthfulState, error) {
	s.scen.init(s.Graph, s.Params, true)
	s.snapOnce.Do(func() {
		// The snapshot audits every execution-only play with a bank of
		// its own over the scenario's checker assignment: the payment
		// audit reads only that node list.
		_, checkers := faithful.Topology(s.Graph, s.Params.CheckerLimit)
		exec := faithful.ExecState{TrueCosts: s.scen.trueCosts, Bank: bank.New(sign.NewAuthority(), checkers)}
		var res *faithful.Result
		var err error
		if sol := s.seed; sol != nil && !s.Params.Loss.Enabled() {
			// Seeded: an honest construction always converges to the
			// central solution and always passes the bank checkpoint, so
			// the certified post-checkpoint state can be synthesized
			// without simulating phases 1/2. The execution phase and
			// payment audit then replay through the same execAndAudit
			// tail faithful.Run uses, making the outcome byte-identical.
			exec.Routing, exec.Pricing, exec.Declared = sol.Routing, sol.Pricing, sol.Costs
			if res, err = faithful.ExecPlay(exec, s.runConfig(nil), nil); err != nil {
				s.snapErr = fmt.Errorf("faithful seeded snapshot: %w", err)
				return
			}
		} else {
			if res, err = faithful.Run(s.runConfig(nil)); err != nil {
				s.snapErr = fmt.Errorf("faithful run: %w", err)
				return
			}
			n := len(res.Nodes)
			exec.Routing = make(map[graph.NodeID]fpss.RoutingTable, n)
			exec.Pricing = make(map[graph.NodeID]fpss.PricingTable, n)
			exec.Declared = make(fpss.CostTable, n)
			for id, node := range res.Nodes {
				exec.Routing[id] = node.RoutingView()
				exec.Pricing[id] = node.PricingView()
				exec.Declared[id] = node.DeclaredCost()
			}
		}
		st := &faithfulState{base: outcomeOf(res)}
		if res.Completed && len(res.Detections) == 0 {
			st.exec, st.ok = exec, true
			if s.Params.Settle.Enabled() && res.Exec != nil {
				st.batch = settleBatch(res.Exec)
			}
		}
		s.snap = st
	})
	if s.snapErr != nil {
		return nil, s.snapErr
	}
	return s.snap, nil
}

// runConfig assembles the faithful.Config shared by Snapshot and every
// play.
func (s *FaithfulSystem) runConfig(strategies map[graph.NodeID]*faithful.Strategy) faithful.Config {
	return faithful.Config{
		Graph:              s.Graph,
		Strategies:         strategies,
		Traffic:            s.Params.Traffic,
		DeliveryValue:      s.Params.DeliveryValue,
		UndeliveredPenalty: s.Params.UndeliveredPenalty,
		CheckerLimit:       s.Params.CheckerLimit,
		Loss:               s.Params.Loss,
	}
}

// outcomeOf maps a faithful result onto a core.Outcome.
func outcomeOf(res *faithful.Result) core.Outcome {
	out := core.Outcome{Utilities: make(map[core.NodeID]int64, len(res.Utilities)), Completed: res.Completed}
	for id, u := range res.Utilities {
		out.Utilities[core.NodeID(id)] = u
	}
	for _, det := range res.Detections {
		if det.Principal >= 0 {
			out.Detected = append(out.Detected, core.NodeID(det.Principal))
		}
	}
	for _, f := range res.PaymentFindings {
		out.Detected = append(out.Detected, core.NodeID(f.Node))
	}
	return out
}

// Play implements core.System (see PlainSystem.Play). The
// execution-only overlay replays accounting and the payment audit on
// the certified snapshot through faithful.ExecPlay.
func (s *FaithfulSystem) Play(_ *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	snap, ok := st.(*faithfulState)
	if !ok {
		return core.Outcome{}, foreignSnapshot(st)
	}
	if deviator < 0 || dev == nil {
		return snap.base, nil
	}
	d, ok := dev.(*Deviation)
	if !ok {
		return core.Outcome{}, fmt.Errorf("rational: foreign deviation %q", dev.Name())
	}
	if d.ExecOnly() && snap.ok {
		res, err := faithful.ExecPlay(snap.exec, s.runConfig(nil), reportHook(deviator, d))
		if err != nil {
			return core.Outcome{}, fmt.Errorf("faithful run: %w", err)
		}
		return outcomeOf(res), nil
	}
	if d.SettleOnly() && snap.ok && snap.batch != nil {
		// Everything up to the settlement window is honest and
		// certified: overlay the deviant 2PC settlement on the
		// snapshot's batch directly.
		out := overlayBase(snap.base)
		if err := s.applySettlement(&out, snap.batch, deviator, d); err != nil {
			return core.Outcome{}, err
		}
		return out, nil
	}
	return s.play(deviator, d)
}

// ProfitUpperBound implements core.Bounder: under the extended
// specification the bank settles any DATA4 misreport back to the true
// obligation and fines ε above the attempted deviation, so an
// execution-phase-only deviation can never beat the honest baseline —
// whatever its hook reports. The same ceiling holds for settle-only
// deviations on a reliable network with a plan-derived fault schedule:
// the crash-tolerant 2PC still commits every transfer (the settle
// sweeps pin this), so the deviator's balance delta is zero and a flag
// only subtracts ε. Under lossy links or a custom fault override,
// infrastructure aborts can genuinely shift balances, so no bound is
// claimed there; construction and checker deviations get none either.
func (s *FaithfulSystem) ProfitUpperBound(deviator core.NodeID, dev core.Deviation) (int64, bool) {
	d, ok := dev.(*Deviation)
	if !ok {
		return 0, false
	}
	settleOnly := d.SettleOnly() && !s.Params.Loss.Enabled() && s.Params.Settle.FaultOverride == nil
	if !d.ExecOnly() && !settleOnly {
		return 0, false
	}
	st, err := s.Snapshot()
	if err != nil {
		return 0, false
	}
	snap := st.(*faithfulState)
	if !snap.ok {
		return 0, false
	}
	base, ok := snap.base.Utilities[deviator]
	if !ok {
		return 0, false
	}
	return base, true
}
