package rational

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/settle"
)

var shardDeviationNames = []string{
	"exit-scam-2pc-window",
	"double-credit-two-homes",
	"stall-prepare-abort",
}

func catalogueNames(sys core.System) map[string]bool {
	names := make(map[string]bool)
	for _, d := range sys.Deviations(0) {
		names[d.Name()] = true
	}
	return names
}

func findDeviation(t *testing.T, sys core.System, name string) core.Deviation {
	t.Helper()
	for _, d := range sys.Deviations(0) {
		if d.Name() == name {
			return d
		}
	}
	t.Fatalf("deviation %q not in catalogue", name)
	return nil
}

// TestShardCatalogueGating: the shard-window family appears exactly
// when the settlement axis is enabled — a singleton-bank scenario
// keeps its catalogue byte-identical.
func TestShardCatalogueGating(t *testing.T) {
	g := graph.Figure1()
	off := DefaultParams(g)
	on := off
	on.Settle = settle.Options{Shards: 2, Seed: 0x51ed}

	plainOff, faithOff := Systems(g, off)
	plainOn, faithOn := Systems(g, on)
	for _, name := range shardDeviationNames {
		if catalogueNames(plainOff)[name] || catalogueNames(faithOff)[name] {
			t.Errorf("%s present without the shard axis", name)
		}
		if !catalogueNames(plainOn)[name] || !catalogueNames(faithOn)[name] {
			t.Errorf("%s missing with the shard axis enabled", name)
		}
	}
	if n, m := len(catalogueNames(plainOn)), len(catalogueNames(plainOff)); n != m+len(shardDeviationNames) {
		t.Errorf("plain catalogue grew by %d, want %d", n-m, len(shardDeviationNames))
	}
}

// TestSettleBatchMatchesUtilities pins the batch translation: the
// all-commit balances of the snapshot's settlement workload equal the
// honest realized utilities, and the crash-tolerant 2PC actually
// reaches them — zero deltas, zero flags — under every crash plan.
func TestSettleBatchMatchesUtilities(t *testing.T) {
	g := graph.Figure1()
	p := DefaultParams(g)
	p.Settle = settle.Options{Shards: 4, Seed: 0xfeed, Timeout: 8}
	sys := &PlainSystem{Graph: g, Params: p}
	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap := st.(*plainState)
	if snap.batch == nil {
		t.Fatal("shard axis enabled but snapshot cached no batch")
	}
	if len(snap.batch.Transfers) == 0 {
		t.Fatal("honest execution produced no cross-account transfers")
	}
	expected := snap.batch.Expected()
	for id, util := range snap.base.Utilities {
		if got := expected[settle.Account(id)]; got != util {
			t.Errorf("node %d: all-commit balance %d != utility %d", id, got, util)
		}
	}
	for _, plan := range settle.Plans {
		opts := p.Settle
		opts.Plan = plan
		res, err := settle.RunFaithful(opts, snap.batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.InDoubt != 0 || res.Aborted != 0 || len(res.Flags) != 0 {
			t.Fatalf("plan %q: honest settlement inDoubt=%d aborted=%d flags=%v",
				plan, res.InDoubt, res.Aborted, res.Flags)
		}
		for a, delta := range res.Deltas {
			if delta != 0 {
				t.Errorf("plan %q: honest account %d drifted by %d", plan, a, delta)
			}
		}
	}
}

// TestShardDeviationOutcomes is the tentpole's economics, checked
// directly on the System adapters: every shard-window deviation that
// moves money in the baseline settlement is strictly profitable
// against PlainSystem, and every one of the three is flagged,
// ε-fined, and therefore strictly unprofitable against FaithfulSystem.
func TestShardDeviationOutcomes(t *testing.T) {
	g := graph.Figure1()
	p := DefaultParams(g)
	p.Settle = settle.Options{Shards: 2, Seed: 0x51ed, Timeout: 8}
	plain, faith := Systems(g, p)

	pst, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap := pst.(*plainState)
	deviator := core.NodeID(-1)
	var owed int64
	for id, o := range snap.owed {
		if o > owed || (o == owed && core.NodeID(id) < deviator) {
			owed = o
			deviator = core.NodeID(id)
		}
	}
	if deviator < 0 || owed <= 0 {
		t.Fatal("no node owes transit payments; the exit scam has nothing to steal")
	}
	base := snap.base.Utilities[deviator]
	local := snap.batch.Local[settle.Account(deviator)]

	// Baseline mechanism: the exit scam pockets exactly what the
	// deviator owed, the double claim pockets its local credit.
	out, err := plain.Play(nil, pst, deviator, findDeviation(t, plain, "exit-scam-2pc-window"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Utilities[deviator]; got != base+owed {
		t.Errorf("plain exit scam: utility %d, want base %d + owed %d", got, base, owed)
	}
	out, err = plain.Play(nil, pst, deviator, findDeviation(t, plain, "double-credit-two-homes"))
	if err != nil {
		t.Fatal(err)
	}
	wantDouble := base
	if local > 0 {
		wantDouble += local
	}
	if got := out.Utilities[deviator]; got != wantDouble {
		t.Errorf("plain double claim: utility %d, want %d (local %d)", got, wantDouble, local)
	}
	if local <= 0 {
		t.Logf("note: deviator %d has non-positive local credit %d; double claim not profitable here", deviator, local)
	}
	out, err = plain.Play(nil, pst, deviator, findDeviation(t, plain, "stall-prepare-abort"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Utilities[deviator]; got != base {
		t.Errorf("plain stall: utility %d, want base %d (no prepare phase to stall)", got, base)
	}

	// Extended mechanism: each deviation is attributed to the account
	// and fined; balances still settle to the honest book.
	fst, err := faith.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fbase := fst.Baseline().Utilities[deviator]
	for _, name := range shardDeviationNames {
		fout, err := faith.Play(nil, fst, deviator, findDeviation(t, faith, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fout.Utilities[deviator]; got >= fbase {
			t.Errorf("faithful %s: utility %d not strictly below baseline %d", name, got, fbase)
		}
		detected := false
		for _, n := range fout.Detected {
			if n == deviator {
				detected = true
			}
		}
		if !detected {
			t.Errorf("faithful %s: deviator %d not detected (detected=%v)", name, deviator, fout.Detected)
		}
	}
}

// TestStatefulSettleMatchesRunOracle is the shard axis' differential
// gate (and the -race certification of the settlement stage): across
// shard counts, crash plans and worker counts, the snapshot fast path
// — cached batch, settle-only overlay, and the faithful settle prune
// bound under VerifyPruned — must reproduce the replay oracle byte for
// byte.
func TestStatefulSettleMatchesRunOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential deviation search over the shard axis is the full lane")
	}
	g := graph.Figure1()

	check := func(t *testing.T, mk func() core.System, workers int) {
		oracle := oracleCheck(t, mk())
		sys := mk()
		got, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, got) {
			t.Fatalf("stateful report diverges\noracle: %+v\ngot:    %+v", oracle, got)
		}
		pruned, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{
			Workers:      workers,
			Prune:        true,
			VerifyPruned: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle.Violations, pruned.Violations) {
			t.Fatalf("pruned violations diverge\noracle: %+v\ngot:    %+v", oracle.Violations, pruned.Violations)
		}
		if pruned.Total() != oracle.Checked {
			t.Fatalf("pruned grid %d+%d != oracle grid %d", pruned.Checked, pruned.Pruned, oracle.Checked)
		}
	}

	// Plain side: the baseline settlement ignores crash plans (it
	// simulates nothing), so sweep shard counts and worker counts.
	for i, k := range []int{2, 4} {
		k, workers := k, 1+3*(i%2)
		t.Run(fmt.Sprintf("plain/k=%d/w=%d", k, workers), func(t *testing.T) {
			p := DefaultParams(g)
			p.Settle = settle.Options{Shards: k, Seed: 0xd1ff ^ uint64(k), Timeout: 8}
			check(t, func() core.System { return &PlainSystem{Graph: g, Params: p} }, workers)
		})
	}

	// Faithful side: shard counts × crash plans, alternating workers.
	// Every plan runs at k=2; k=4 keeps the restart-bearing plans (the
	// no-fault rows add nothing the k=2 sweep hasn't certified).
	plansFor := map[int][]string{
		2: settle.Plans,
		4: {settle.PlanParticipant, settle.PlanRecovery},
	}
	i := 0
	for _, k := range []int{2, 4} {
		for _, plan := range plansFor[k] {
			k, plan, workers := k, plan, 1+3*(i%2)
			i++
			pn := plan
			if pn == settle.PlanNone {
				pn = "none"
			}
			t.Run(fmt.Sprintf("faithful/k=%d/plan=%s/w=%d", k, pn, workers), func(t *testing.T) {
				p := DefaultParams(g)
				p.Settle = settle.Options{Shards: k, Seed: 0xd1ff ^ uint64(k), Plan: plan, Timeout: 8}
				check(t, func() core.System { return &FaithfulSystem{Graph: g, Params: p} }, workers)
			})
		}
	}
}
