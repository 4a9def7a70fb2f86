package settle

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// benchBatch builds a seed-deterministic settlement workload: n
// accounts with mixed local credits and 2n cross-account transfers.
func benchBatch(n int) *Batch {
	b := &Batch{Local: make(map[Account]int64, n)}
	for i := 0; i < n; i++ {
		a := Account(i)
		b.Accounts = append(b.Accounts, a)
		b.Local[a] = int64(sim.Mix64(uint64(i)^0xb17e)%200) - 80
	}
	for i := 0; i < 2*n; i++ {
		r := sim.Mix64(uint64(i) ^ 0x7f10)
		from := Account(r % uint64(n))
		to := Account(sim.Mix64(r) % uint64(n))
		if from == to {
			to = Account((uint64(to) + 1) % uint64(n))
		}
		b.Transfers = append(b.Transfers, Transfer{From: from, To: to, Amount: int64(1 + r%50)})
	}
	return b
}

// BenchmarkSettle is the sharded-settlement perf ladder: the 2PC
// engine across shard counts, crash plans and a lossy rung. Each row
// reports its run's committed, aborted and infra-aborted transfers,
// the settlement messages sent, and the deliveries the loss model
// dropped and retried and the crash plan dropped: counts the
// BENCH_settle ladder gates exactly. Sent counts a message once however
// many attempts it takes, so only dropped and retried pin the retry
// envelope, and crash-dropped the crash paths.
func BenchmarkSettle(b *testing.B) {
	type rung struct {
		name string
		opts Options
		n    int
	}
	var rungs []rung
	for _, k := range []int{2, 4, 8} {
		for _, plan := range []string{PlanNone, PlanParticipant, PlanCoordinator, PlanRecovery} {
			pn := plan
			if pn == PlanNone {
				pn = "none"
			}
			rungs = append(rungs, rung{
				name: fmt.Sprintf("k=%d/plan=%s/n=32", k, pn),
				opts: Options{Shards: k, Seed: 0xbe7c4, Plan: plan},
				n:    32,
			})
		}
	}
	rungs = append(rungs, rung{
		name: "k=4/plan=none/n=32/loss=0.1",
		opts: Options{
			Shards: 4, Seed: 0xbe7c4,
			Loss: sim.LossModel{Rate: 0.1, Burst: 3, Seed: 11},
		},
		n: 32,
	})
	for _, r := range rungs {
		batch := benchBatch(r.n)
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = RunFaithful(r.opts, batch, nil); err != nil {
					b.Fatal(err)
				}
				if res.InDoubt != 0 || len(res.Flags) != 0 {
					b.Fatalf("honest bench run: inDoubt=%d flags=%v", res.InDoubt, res.Flags)
				}
			}
			b.ReportMetric(float64(res.Committed), "committed")
			b.ReportMetric(float64(res.Aborted), "aborted")
			b.ReportMetric(float64(res.InfraAborts), "infra-aborts")
			b.ReportMetric(float64(res.Counters.Sent), "settle-msgs")
			b.ReportMetric(float64(res.Counters.Dropped), "dropped")
			b.ReportMetric(float64(res.Counters.Retried), "retried")
			b.ReportMetric(float64(res.Counters.CrashDropped), "crash-dropped")
		})
	}
}

// BenchmarkSettlePlain is the baseline bookkeeping cost — the
// singleton-bank settlement the shards replace.
func BenchmarkSettlePlain(b *testing.B) {
	batch := benchBatch(32)
	opts := Options{Shards: 4, Seed: 0xbe7c4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunPlain(opts, batch, nil)
	}
}
