package settle

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// testBatch is a small settlement workload with cross-shard flow under
// every K used in the tests: 6 accounts, mixed-sign local credits, and
// transfers touching most pairs. Expected() balances sum to the same
// total as Local — transfers only move value.
func testBatch() *Batch {
	return &Batch{
		Accounts: []Account{0, 1, 2, 3, 4, 5},
		Local: map[Account]int64{
			0: 40, 1: -10, 2: 25, 3: 0, 4: 60, 5: -5,
		},
		Transfers: []Transfer{
			{ID: 0, From: 0, To: 1, Amount: 15},
			{ID: 1, From: 4, To: 2, Amount: 20},
			{ID: 2, From: 2, To: 5, Amount: 5},
			{ID: 3, From: 4, To: 0, Amount: 10},
			{ID: 4, From: 0, To: 3, Amount: 5},
		},
	}
}

func honestOpts(k int, plan string) Options {
	return Options{Shards: k, Seed: 0x5e771e, Plan: plan}
}

// TestHonestSweepZeroFP is the acceptance sweep: K ∈ {2,4} ×
// {no-crash, coordinator, participant, crash-during-recovery} × loss
// ∈ {0, 0.25 (MaxTolerableLoss)}. Under every combination, every
// transfer commits, nothing is left in doubt after recovery, the
// final balances equal the all-commit expectation exactly, and no
// account is flagged.
func TestHonestSweepZeroFP(t *testing.T) {
	for _, k := range []int{2, 4} {
		for _, plan := range Plans {
			for _, rate := range []float64{0, 0.25} {
				name := fmt.Sprintf("k=%d/plan=%s/loss=%v", k, plan, rate)
				t.Run(name, func(t *testing.T) {
					opts := honestOpts(k, plan)
					if rate > 0 {
						opts.Loss = sim.LossModel{Rate: rate, Burst: 3, Seed: 77}
					}
					b := testBatch()
					res, err := RunFaithful(opts, b, nil)
					if err != nil {
						t.Fatal(err)
					}
					if res.Committed != len(b.Transfers) || res.Aborted != 0 {
						t.Fatalf("committed=%d aborted=%d, want all %d committed",
							res.Committed, res.Aborted, len(b.Transfers))
					}
					if res.InDoubt != 0 {
						t.Fatalf("%d transfers left in doubt after recovery", res.InDoubt)
					}
					if len(res.Flags) != 0 {
						t.Fatalf("honest principals flagged: %v", res.Flags)
					}
					for a, d := range res.Deltas {
						if d != 0 {
							t.Fatalf("account %d delta %d, want 0 (balances=%v)", a, d, res.Balances)
						}
					}
					if plan != PlanNone {
						if res.Counters.Crashes == 0 {
							t.Fatalf("plan %q injected no crash", plan)
						}
						if res.Counters.Restarts != res.Counters.Crashes {
							t.Fatalf("crashes=%d restarts=%d, want equal (every crash recovers)",
								res.Counters.Crashes, res.Counters.Restarts)
						}
					}
					if plan == PlanRecovery && res.Counters.Crashes != 2 {
						t.Fatalf("recovery plan crashed %d times, want 2", res.Counters.Crashes)
					}
				})
			}
		}
	}
}

// TestDeterministicResults pins replayability: the same options and
// batch produce byte-identical results, counters included.
func TestDeterministicResults(t *testing.T) {
	opts := honestOpts(4, PlanRecovery)
	opts.Loss = sim.LossModel{Rate: 0.2, Burst: 2, Seed: 9}
	a, err := RunFaithful(opts, testBatch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaithful(opts, testBatch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic settlement:\n%+v\nvs\n%+v", a, b)
	}
}

// TestShardCrashNeverBlamesPrincipals pins the infrastructure
// attribution contract with a shard that never comes back: the
// affected transfers abort (presumed abort after the retry budget) or
// stay in doubt, InfraAborts accounts for them, and no principal is
// flagged — the settlement-layer zero-FP contract.
func TestShardCrashNeverBlamesPrincipals(t *testing.T) {
	opts := honestOpts(2, PlanNone)
	opts.Timeout = 8 // keep the timeout ladder short
	opts.FaultOverride = &sim.FaultModel{Schedule: []sim.Crash{
		{Addr: shardAddr(0), AfterDeliveries: 1, RestartDelay: -1},
	}}
	b := testBatch()
	res, err := RunFaithful(opts, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flags) != 0 {
		t.Fatalf("shard crash blamed principals: %v", res.Flags)
	}
	if res.Counters.Crashes != 1 || res.Counters.Restarts != 0 {
		t.Fatalf("counters = %+v, want one unrecovered crash", res.Counters)
	}
	if res.InfraAborts == 0 && res.InDoubt == 0 {
		t.Fatalf("dead shard produced neither infra aborts nor doubt: %+v", res)
	}
	if res.InfraAborts != res.Aborted {
		t.Fatalf("aborted=%d infraAborts=%d: every abort here is infrastructure",
			res.Aborted, res.InfraAborts)
	}
}

// TestDecisionLogView pins the WAL summary the recovery path and the
// post-run in-doubt audit both rely on.
func TestDecisionLogView(t *testing.T) {
	l := NewDecisionLog()
	l.Append(Entry{Kind: EntryLocal, Account: 7, Amount: 3})
	l.Append(Entry{Kind: EntryPrepared, Tx: 0})
	l.Append(Entry{Kind: EntryPrepared, Tx: 1})
	l.Append(Entry{Kind: EntryDecided, Tx: 0, Commit: true})
	l.Append(Entry{Kind: EntryApplied, Tx: 0, Commit: true})
	v := l.View()
	if !v.Prepared[0] || !v.Prepared[1] || v.Prepared[2] {
		t.Fatalf("prepared view wrong: %+v", v)
	}
	if !v.Decided[0] || v.Decided[1] {
		t.Fatalf("decided view wrong: %+v", v)
	}
	if !v.Applied[0] || v.Applied[1] {
		t.Fatalf("applied view wrong: %+v", v)
	}
	if !v.Commit[0] {
		t.Fatalf("commit value lost: %+v", v)
	}
	// Tx 1 is the in-doubt shape: prepared, no decision applied.
	if v.Prepared[1] && v.Applied[1] {
		t.Fatal("tx 1 should be in doubt")
	}
	if len(l.entries) != 5 {
		t.Fatalf("len(entries) = %d, want 5", len(l.entries))
	}
}

// --- Deviation surface ---

func deviant(s Strategy) map[Account]*Strategy {
	return map[Account]*Strategy{4: &s}
}

// Account 4 has Local=60 and two outgoing transfers (20+10=30): the
// natural deviator for all three strategies.
const deviator Account = 4

func TestVanishProfitsInPlain(t *testing.T) {
	opts := honestOpts(2, PlanNone)
	b := testBatch()
	res := RunPlain(opts, b, deviant(Strategy{VanishAfterPrepare: true}))
	if res.Deltas[deviator] != 30 {
		t.Fatalf("plain exit scam delta %d, want +30 (bounced outgoing)", res.Deltas[deviator])
	}
	if len(res.Flags) != 0 {
		t.Fatalf("plain settlement has no checkers, got flags %v", res.Flags)
	}
	// The creditors ate the loss.
	if res.Deltas[2] != -20 || res.Deltas[0] != -10 {
		t.Fatalf("creditor deltas = %v, want 2:-20 0:-10", res.Deltas)
	}
}

func TestVanishCaughtInFaithful(t *testing.T) {
	opts := honestOpts(2, PlanNone)
	b := testBatch()
	res, err := RunFaithful(opts, b, deviant(Strategy{VanishAfterPrepare: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deltas[deviator] != 0 {
		t.Fatalf("faithful exit scam delta %d, want 0 (exit deferred until resolution)", res.Deltas[deviator])
	}
	if !res.Flagged(deviator) {
		t.Fatalf("exit scam not flagged: %v", res.Flags)
	}
	if res.Committed != len(b.Transfers) {
		t.Fatalf("committed=%d, want all %d (settlement completed despite the exit)",
			res.Committed, len(b.Transfers))
	}
	for a, d := range res.Deltas {
		if d != 0 {
			t.Fatalf("account %d delta %d, want 0", a, d)
		}
	}
}

func TestDoubleClaimProfitsInPlain(t *testing.T) {
	opts := honestOpts(2, PlanNone)
	b := testBatch()
	res := RunPlain(opts, b, deviant(Strategy{DoubleClaim: true}))
	if res.Deltas[deviator] != b.Local[deviator] {
		t.Fatalf("plain double claim delta %d, want +%d", res.Deltas[deviator], b.Local[deviator])
	}
}

func TestDoubleClaimCaughtInFaithful(t *testing.T) {
	for _, k := range []int{2, 4} {
		opts := honestOpts(k, PlanNone)
		b := testBatch()
		res, err := RunFaithful(opts, b, deviant(Strategy{DoubleClaim: true}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Deltas[deviator] != 0 {
			t.Fatalf("k=%d: faithful double claim delta %d, want 0", k, res.Deltas[deviator])
		}
		if !res.Flagged(deviator) {
			t.Fatalf("k=%d: double claim not flagged: %v", k, res.Flags)
		}
		for _, f := range res.Flags {
			if f.Account != deviator {
				t.Fatalf("k=%d: non-deviator flagged: %v", k, res.Flags)
			}
		}
	}
}

func TestStallForcedThroughAndFlagged(t *testing.T) {
	opts := honestOpts(2, PlanNone)
	opts.Timeout = 4 // shrink the stall ladder
	b := testBatch()
	res, err := RunFaithful(opts, b, deviant(Strategy{StallPrepare: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != len(b.Transfers) {
		t.Fatalf("committed=%d, want all %d (stall must not force an abort)",
			res.Committed, len(b.Transfers))
	}
	if res.Deltas[deviator] != 0 {
		t.Fatalf("stall delta %d, want 0 (force-settled)", res.Deltas[deviator])
	}
	want := Flag{Account: deviator, Reason: ReasonStallCoSign}
	if len(res.Flags) != 1 || res.Flags[0] != want {
		t.Fatalf("flags = %v, want exactly %v", res.Flags, want)
	}
	// Plain baseline: stalling a phase that does not exist gains
	// nothing — the deviation only matters as a faithful-variant
	// griefing attempt.
	plain := RunPlain(opts, b, deviant(Strategy{StallPrepare: true}))
	if plain.Deltas[deviator] != 0 {
		t.Fatalf("plain stall delta %d, want 0", plain.Deltas[deviator])
	}
}

// TestStallFlagRetractedUnderLoss pins the attribution rule for the
// one inferred flag: when the run saw permanent message loss, a
// co-sign silence is not attributable to the principal, so the stall
// flag is retracted (while the settlement still completes — forced
// through without blame). Direct-evidence flags are unaffected.
func TestStallFlagRetractedUnderLoss(t *testing.T) {
	opts := honestOpts(2, PlanNone)
	opts.Timeout = 4
	// A certain-loss single-attempt link model guarantees Lost > 0 on
	// the co-sign path while self-send timers keep ticking.
	opts.Loss = sim.LossModel{Rate: 1, Seed: 3, Attempts: 1}
	b := testBatch()
	res, err := RunFaithful(opts, b, deviant(Strategy{StallPrepare: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Lost == 0 {
		t.Fatal("test setup: expected permanent loss")
	}
	for _, f := range res.Flags {
		if f.Reason == ReasonStallCoSign {
			t.Fatalf("stall flag survived a lossy run: %v", res.Flags)
		}
	}
	// Under total loss nothing can 2PC: every abort is infrastructure.
	if res.Aborted != res.InfraAborts {
		t.Fatalf("aborted=%d infraAborts=%d under total loss", res.Aborted, res.InfraAborts)
	}
}

// TestFaultModelPlans sanity-checks the plan expansion: seeded,
// positional, restart delays inside the retry horizon.
func TestFaultModelPlans(t *testing.T) {
	opts := honestOpts(4, PlanNone)
	if m := opts.FaultModelFor(nil); m.Enabled() {
		t.Fatalf("PlanNone expanded to %+v", m)
	}
	horizon := opts.timeout()
	var budget int64
	for i := 1; i <= attempts; i++ {
		budget += int64(i)
	}
	horizon *= budget
	for _, plan := range []string{PlanCoordinator, PlanParticipant, PlanRecovery} {
		opts.Plan = plan
		m := opts.FaultModelFor(nil)
		if !m.Enabled() {
			t.Fatalf("plan %q expanded to nothing", plan)
		}
		for _, c := range m.Schedule {
			if c.RestartDelay < 0 || c.RestartDelay >= horizon {
				t.Fatalf("plan %q restart delay %d outside retry horizon %d", plan, c.RestartDelay, horizon)
			}
		}
		m2 := opts.FaultModelFor(nil)
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("plan %q not deterministic", plan)
		}
	}
	if !ValidPlan(PlanRecovery) || ValidPlan("bogus") {
		t.Fatal("ValidPlan misclassifies")
	}
}

// TestHomeRoutingCoversShards checks the routing hash spreads accounts
// and is seed-sensitive.
func TestHomeRoutingCoversShards(t *testing.T) {
	opts := Options{Shards: 4, Seed: 1}
	seen := make(map[ShardID]bool)
	for a := Account(0); a < 64; a++ {
		seen[opts.Home(a)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("64 accounts hit only %d/4 shards", len(seen))
	}
	opts2 := opts
	opts2.Seed = 2
	moved := 0
	for a := Account(0); a < 64; a++ {
		if opts.Home(a) != opts2.Home(a) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("re-seeding moved no account homes")
	}
}

// Flagged reports whether a was flagged.
func (r *Result) Flagged(a Account) bool {
	for _, f := range r.Flags {
		if f.Account == a {
			return true
		}
	}
	return false
}
