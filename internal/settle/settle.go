// Package settle shards the paper's trusted bank and makes its
// checkpoint settlement a crash-tolerant distributed protocol.
//
// The extended FPSS specification (§4.2) assumes one obedient bank: a
// singleton that credits every node's realized utility and audits its
// reports. That singleton is also the scaling ceiling — and, more
// interestingly for the faithfulness story, it is the one component
// with no failure model. This package splits the book into K shards
// (each wrapping a bank.Ledger), routes every account to a home shard
// by identity hash, and settles the cross-shard flows of an execution
// phase with a two-phase commit over the deterministic simulator:
// co-sign → prepare/vote → decide (write-ahead logged) → commit/ack,
// with per-phase timeouts, bounded linear-backoff retries (the
// LossModel retry-envelope idiom, one level up), presumed abort, and a
// deterministic recovery path — a crashed shard or coordinator loses
// its volatile state, replays its DecisionLog, and re-resolves
// in-doubt transactions.
//
// Two engines produce the same Result shape:
//
//   - RunFaithful is the extended-specification settlement: the full
//     2PC over sim, composable with sim.LossModel (lossy links) and
//     sim.FaultModel (shard/coordinator crashes), with checker-side
//     attribution. Infrastructure failures are never blamed on a
//     principal: a settlement that aborts because a shard crashed
//     counts in InfraAborts and flags nobody (the same zero-FP
//     contract as faithful.MaxTolerableLoss), and stall inferences are
//     dropped whenever loss could explain the silence.
//   - RunPlain is settlement under the manipulable baseline mechanism:
//     one-phase bookkeeping with no co-signing, no verification and no
//     flags — the variant in which the shard-window attacks actually
//     pay.
//
// The deviation surface this buys (see rational.ShardCatalogue): an
// exit scam inside the 2PC window (spend after prepare, leave before
// commit), double-credit claims to two home shards, and stalling the
// prepare phase to force aborts. Each is profitable against RunPlain
// and caught — direct flag, ε-penalized, attack neutralized — by
// RunFaithful.
package settle

import (
	"fmt"
	"sort"

	"repro/internal/bank"
	"repro/internal/sim"
)

// Account aliases the ledger's account identity.
type Account = bank.Account

// ShardID numbers a shard in [0, Shards).
type ShardID int

// Crash plans selectable per scenario (scenario.Spec.Shards.Crash,
// faithcheck -crash). Each expands to a seed-positional
// sim.FaultModel schedule whose restart delays sit well inside the
// coordinator's retry horizon, so every transaction still commits —
// the sweeps assert zero residual deltas under every plan.
const (
	PlanNone        = ""
	PlanCoordinator = "coordinator" // crash-restart the coordinator mid-protocol
	PlanParticipant = "participant" // crash-restart one shard mid-protocol
	PlanRecovery    = "recovery"    // crash the same shard again during its recovery
)

// Plans lists the selectable crash plans, PlanNone first.
var Plans = []string{PlanNone, PlanCoordinator, PlanParticipant, PlanRecovery}

// ValidPlan reports whether name is a known crash plan.
func ValidPlan(name string) bool {
	for _, p := range Plans {
		if name == p {
			return true
		}
	}
	return false
}

// Options configures a sharded settlement.
type Options struct {
	// Shards is the shard count K; 0 disables the axis entirely.
	Shards int
	// Seed drives home-shard routing and the crash plan's positions.
	Seed uint64
	// Plan names the crash-fault plan (PlanNone, PlanCoordinator,
	// PlanParticipant, PlanRecovery).
	Plan string
	// Timeout is the coordinator's retransmission quantum in ticks
	// (default 64). Phase timers are self-sends spaced this far apart.
	Timeout int64
	// Loss optionally composes lossy links under the 2PC.
	Loss sim.LossModel
	// FaultOverride, when non-nil, replaces the Plan-derived schedule —
	// the hook unit tests use to express schedules no plan generates
	// (e.g. a shard that never restarts).
	FaultOverride *sim.FaultModel
}

// Enabled reports whether the shard axis is active.
func (o Options) Enabled() bool { return o.Shards > 0 }

func (o Options) timeout() int64 {
	if o.Timeout <= 0 {
		return 64
	}
	return o.Timeout
}

const (
	// attempts bounds per-phase retransmissions, with linear backoff
	// between them.
	attempts = 8
	// maxSteps bounds the settlement run's deliveries.
	maxSteps = 1 << 20
)

// faultSeedSalt decorrelates the crash plan's positions from the
// routing seed (which also feeds scenario topology draws).
const faultSeedSalt = 0x73686172642121 // "shard!!"

// FaultModelFor expands the named crash plan against a batch.
// RunFaithful passes its batch, which narrows the shard victim's draw
// to shards that actually participate in it — a crash plan that picks
// an idle shard would never fire, because crashes are armed by
// delivery counts; a nil batch draws over all shards. Positions are
// small (the crash lands inside the 2PC window of even a one-transfer
// batch) and restart delays are seed-drawn inside the coordinator's
// retry horizon (sum of attempts backoffs × Timeout): under every
// plan, every transaction still commits.
func (o Options) FaultModelFor(b *Batch) sim.FaultModel {
	if o.FaultOverride != nil {
		return *o.FaultOverride
	}
	if o.Plan == PlanNone || !o.Enabled() {
		return sim.FaultModel{}
	}
	r := sim.Mix64(o.Seed ^ faultSeedSalt)
	// Restart within [T, 3T): far less than the ~attempts²/2 × T retry
	// horizon, so recovery always completes.
	delay := o.timeout() + int64(sim.Mix64(r)%uint64(2*o.timeout()))
	switch o.Plan {
	case PlanCoordinator:
		// The coordinator sees co-signs, votes, acks and its own ticks:
		// a small positional count lands mid-protocol for any workload.
		return sim.FaultModel{Schedule: []sim.Crash{
			{Addr: coordAddr, AfterDeliveries: int64(2 + r%5), RestartDelay: delay},
		}}
	case PlanParticipant:
		victim := o.victimShard(b, sim.Mix64(r^1))
		return sim.FaultModel{Schedule: []sim.Crash{
			{Addr: shardAddr(victim), AfterDeliveries: int64(1 + r%2), RestartDelay: delay},
		}}
	case PlanRecovery:
		victim := o.victimShard(b, sim.Mix64(r^2))
		return sim.FaultModel{Schedule: []sim.Crash{
			{Addr: shardAddr(victim), AfterDeliveries: 1, RestartDelay: delay},
			// The second entry arms on the first delivery after the
			// restart: the shard crashes again mid-recovery.
			{Addr: shardAddr(victim), AfterDeliveries: 1, RestartDelay: delay},
		}}
	default:
		panic(fmt.Sprintf("settle: unknown crash plan %q", o.Plan))
	}
}

// victimShard draws the crash victim: uniformly over shards touched by
// the batch's transfers (every participant sees at least a prepare and
// a decision, so small positional counts always fire), or over all
// shards when no batch is given.
func (o Options) victimShard(b *Batch, r uint64) ShardID {
	if b == nil || len(b.Transfers) == 0 {
		return ShardID(r % uint64(o.Shards))
	}
	seen := make(map[ShardID]bool)
	var touched []ShardID
	add := func(s ShardID) {
		if !seen[s] {
			seen[s] = true
			touched = append(touched, s)
		}
	}
	for _, t := range b.Transfers {
		add(o.Home(t.From))
		add(o.Home(t.To))
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	return touched[r%uint64(len(touched))]
}

// Home routes an account to its home shard by identity hash — the
// sharding function is public and seed-deterministic, so every shard
// (and every checker) can verify a claimed home.
func (o Options) Home(a Account) ShardID {
	return ShardID(sim.Mix64(uint64(a)^o.Seed) % uint64(o.Shards))
}

// Transfer is one cross-account flow inside a settlement batch:
// Amount moves from From's home shard to To's home shard. The 2PC
// addresses a transfer by its index in the batch.
type Transfer struct {
	From   Account
	To     Account
	Amount int64
}

// Batch is one execution phase's settlement workload: each account's
// local credit (routed to its home shard before the 2PC) plus the
// transfer list. Built from an fpss execution so that, when every
// transfer commits, each account's final balance equals its realized
// utility: Local = util + out − in.
type Batch struct {
	Accounts  []Account
	Local     map[Account]int64
	Transfers []Transfer
}

// Expected returns the all-commit final balances — the settlement's
// correctness target.
func (b *Batch) Expected() map[Account]int64 {
	out := make(map[Account]int64, len(b.Accounts))
	for _, a := range b.Accounts {
		out[a] = b.Local[a]
	}
	for _, t := range b.Transfers {
		out[t.From] -= t.Amount
		out[t.To] += t.Amount
	}
	return out
}

// Strategy is a deviant account's behavior inside the settlement
// window. The zero value is honest.
type Strategy struct {
	// VanishAfterPrepare is the 2PC-window exit scam: co-sign the
	// debit, then request account closure before commit, hoping the
	// debit bounces while already-received credits stay.
	VanishAfterPrepare bool
	// DoubleClaim presents the account's local credit to two shards —
	// its true home and a second claimed home.
	DoubleClaim bool
	// StallPrepare withholds every co-sign, trying to time the
	// coordinator out into a profitable abort.
	StallPrepare bool
}

// Deviant reports whether any deviation is armed.
func (s *Strategy) Deviant() bool {
	return s != nil && (s.VanishAfterPrepare || s.DoubleClaim || s.StallPrepare)
}

// Flag is a settlement-layer observation against a principal account.
// Flags are direct evidence (an explicit wrong message, or an
// unambiguous timeout with loss ruled out); infrastructure failures
// never produce one.
type Flag struct {
	Account Account
	Reason  string
}

// Result is the outcome of one settlement run, identical in shape for
// both engines.
type Result struct {
	// Committed/Aborted/InDoubt partition the batch's transfers.
	// InDoubt counts transfers left prepared-but-unresolved on some
	// shard at the end of the run — zero whenever every crashed
	// component restarted.
	Committed int
	Aborted   int
	InDoubt   int
	// InfraAborts counts aborts attributed to infrastructure (shard
	// crash or exhausted retries with faults present); they flag
	// nobody.
	InfraAborts int
	// Balances is the final per-account book merged across shards;
	// Deltas is Balances − Batch.Expected() (all zero when every
	// transfer committed).
	Balances map[Account]int64
	Deltas   map[Account]int64
	// Flags are the settlement checkers' observations, sorted.
	Flags []Flag
	// Counters is the settlement network's traffic (faithful engine
	// only; zero for RunPlain, which simulates nothing).
	Counters sim.Counters
}

func (r *Result) sortFlags() {
	sort.Slice(r.Flags, func(i, j int) bool {
		if r.Flags[i].Account != r.Flags[j].Account {
			return r.Flags[i].Account < r.Flags[j].Account
		}
		return r.Flags[i].Reason < r.Flags[j].Reason
	})
}

// ShardedBank is the K-way split of the trusted bank's book: one
// bank.Ledger per shard, accounts routed by Options.Home. It is the
// durable substrate both settlement engines write into.
type ShardedBank struct {
	opts   Options
	shards []*Shard
}

// Shard is one partition: a ledger for its home accounts plus the
// write-ahead decision log its 2PC participant recovers from.
type Shard struct {
	ID     ShardID
	Ledger *bank.Ledger
	WAL    *DecisionLog
}

// NewShardedBank builds K empty shards.
func NewShardedBank(opts Options) *ShardedBank {
	sb := &ShardedBank{opts: opts, shards: make([]*Shard, opts.Shards)}
	for i := range sb.shards {
		sb.shards[i] = &Shard{ID: ShardID(i), Ledger: bank.NewLedger(), WAL: NewDecisionLog()}
	}
	return sb
}

// Home routes an account to its home shard.
func (sb *ShardedBank) Home(a Account) ShardID { return sb.opts.Home(a) }

// Shard returns shard i.
func (sb *ShardedBank) Shard(i ShardID) *Shard { return sb.shards[i] }

// Balances merges every shard's book.
func (sb *ShardedBank) Balances() map[Account]int64 {
	out := make(map[Account]int64)
	for _, s := range sb.shards {
		for a, b := range s.Ledger.Balances() {
			out[a] = b
		}
	}
	return out
}

// stage opens every account and applies its local credit on its home
// shard, WAL-first. This is the bank routing each node's credit to its
// home shard — registration-time bookkeeping, not protocol traffic.
func (sb *ShardedBank) stage(b *Batch) error {
	for _, a := range b.Accounts {
		sh := sb.shards[sb.Home(a)]
		if err := sh.Ledger.Open(a); err != nil {
			return err
		}
		sh.WAL.Append(Entry{Kind: EntryLocal, Account: a, Amount: b.Local[a]})
		if err := sh.Ledger.Credit(a, b.Local[a]); err != nil {
			return err
		}
	}
	return nil
}
