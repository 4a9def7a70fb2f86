package rational

import (
	"fmt"
	"sort"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/settle"
	"repro/internal/spec"
)

// This file wires the sharded settlement (internal/settle) into the
// deviation search: the shard-window deviation family, the translation
// of an execution phase into a settlement batch, and the settlement
// stage each System appends to a deviant play. Honest plays never run
// settlement — an honest settlement is delta-zero by construction
// (Batch.Expected equals the realized utilities, and the honest sweeps
// in internal/settle pin that every transfer commits under every crash
// plan), so skipping it keeps the baseline identical to the pre-shard
// scenario.

// ShardCatalogue returns the shard-window deviation family — attacks
// on the bank's own settlement rather than on routing or pricing,
// meaningful only when Params.Settle enables the shard axis (the
// System adapters append it then; a singleton-bank scenario keeps the
// classic catalogue byte-identical). Every entry exists in both
// protocol variants: the baseline one-phase settlement is where they
// pay, the crash-tolerant 2PC is where they are flagged and fined.
func ShardCatalogue(forFaithful bool) []*Deviation {
	_ = forFaithful // no entry is faithful-only: the attack surface is the bank itself
	return []*Deviation{
		{
			// The 2PC-window exit scam: co-sign the debit, then request
			// account closure before commit, hoping the debit bounces
			// while already-received credits stay.
			name:    "exit-scam-2pc-window",
			classes: []spec.ActionKind{spec.MessagePassing},
			settle: func(Ctx) *settle.Strategy {
				return &settle.Strategy{VanishAfterPrepare: true}
			},
		},
		{
			// Present the local credit to two shards — the true home and
			// a second claimed home — hoping the duplicate is applied.
			name:    "double-credit-two-homes",
			classes: []spec.ActionKind{spec.InfoRevelation, spec.Computation},
			settle: func(Ctx) *settle.Strategy {
				return &settle.Strategy{DoubleClaim: true}
			},
		},
		{
			// Withhold every co-sign, trying to time the coordinator out
			// into a profitable abort of the deviator's debits.
			name:    "stall-prepare-abort",
			classes: []spec.ActionKind{spec.MessagePassing},
			settle: func(Ctx) *settle.Strategy {
				return &settle.Strategy{StallPrepare: true}
			},
		},
	}
}

// settleBatch converts an execution phase's accounting into the
// settlement workload the sharded bank clears: each honest DATA4
// obligation entry becomes a cross-shard transfer, and each account's
// local credit is its realized utility net of those flows
// (Local = util + out − in). When every transfer commits the final
// balances equal the utilities, so a deviant settlement's Deltas are
// exactly the money the deviation moved. Iteration is sorted — the
// batch must be byte-identical between a full protocol replay and the
// snapshot fast path.
func settleBatch(exec *fpss.ExecResult) *settle.Batch {
	nodes := make([]graph.NodeID, 0, len(exec.Utilities))
	for n := range exec.Utilities {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	b := &settle.Batch{
		Accounts: make([]settle.Account, 0, len(nodes)),
		Local:    make(map[settle.Account]int64, len(nodes)),
	}
	in := make(map[graph.NodeID]int64, len(nodes))
	out := make(map[graph.NodeID]int64, len(nodes))
	for _, from := range nodes {
		ob := exec.Obligations[from]
		tos := make([]graph.NodeID, 0, len(ob))
		for to := range ob {
			tos = append(tos, to)
		}
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
		for _, to := range tos {
			amt := ob[to]
			if amt == 0 || to == from {
				continue
			}
			out[from] += amt
			in[to] += amt
			b.Transfers = append(b.Transfers, settle.Transfer{
				From: settle.Account(from), To: settle.Account(to), Amount: amt,
			})
		}
	}
	for _, n := range nodes {
		b.Accounts = append(b.Accounts, settle.Account(n))
		b.Local[settle.Account(n)] = exec.Utilities[n] + out[n] - in[n]
	}
	return b
}

// applySettlement folds the baseline settlement of the execution's
// batch into a deviant play's outcome: the deviator plays its
// settlement strategy against the manipulable one-phase mechanism and
// pockets whatever its balance shifts by (the others eat the loss).
// Honest strategies are a no-op — the baseline settlement of an
// all-honest batch is delta-zero.
func (s *PlainSystem) applySettlement(out *core.Outcome, batch *settle.Batch, deviator core.NodeID, d *Deviation) {
	strat := d.settle(Ctx{Graph: s.Graph, Node: graph.NodeID(deviator)})
	if !strat.Deviant() {
		return
	}
	res := settle.RunPlain(s.Params.Settle, batch, map[settle.Account]*settle.Strategy{
		settle.Account(deviator): strat,
	})
	for a, delta := range res.Deltas {
		out.Utilities[core.NodeID(a)] += delta
	}
}

// applySettlement folds the crash-tolerant 2PC settlement into a
// deviant play's outcome: balance deltas (zero whenever every transfer
// commits, which the plan-derived fault schedules guarantee), plus an
// ε fine and a detection mark per settlement flag — the sharded bank's
// checkers attribute the deviation to the account directly.
func (s *FaithfulSystem) applySettlement(out *core.Outcome, batch *settle.Batch, deviator core.NodeID, d *Deviation) error {
	strat := d.settle(Ctx{Graph: s.Graph, Node: graph.NodeID(deviator)})
	if !strat.Deviant() {
		return nil
	}
	res, err := settle.RunFaithful(s.Params.Settle, batch, map[settle.Account]*settle.Strategy{
		settle.Account(deviator): strat,
	})
	if err != nil {
		return fmt.Errorf("faithful settle: %w", err)
	}
	for a, delta := range res.Deltas {
		out.Utilities[core.NodeID(a)] += delta
	}
	for _, f := range res.Flags {
		out.Utilities[core.NodeID(f.Account)] -= bank.Epsilon
		out.Detected = append(out.Detected, core.NodeID(f.Account))
	}
	return nil
}
