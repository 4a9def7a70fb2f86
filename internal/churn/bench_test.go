package churn

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// BenchmarkTimelineBuild isolates the schedule/graph-evolution cost —
// everything before any protocol runs.
func BenchmarkTimelineBuild(b *testing.B) {
	sp := scenario.Spec{Family: scenario.Random, N: 8, Seed: 1,
		Churn: scenario.Churn{Epochs: 4, Joins: 1, Leaves: 1, RedrawFraction: 0.25}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurn is the epochs × n × workers ladder of the per-epoch
// deviation search against the extended specification — the unit of
// work a `faithcheck -suite churn` sweep scales by, published as
// BENCH_churn.json with a committed baseline. Workers > 1 rows are
// where multi-core runners should show the parallel win; the per-play
// cost is roughly one epoch's construction+execution (honest epochs
// come from the timeline cache).
func BenchmarkChurn(b *testing.B) {
	if testing.Short() {
		b.Skip("deviation searches are the slow lane")
	}
	shapes := []struct{ n, epochs int }{
		{6, 2},
		{6, 4},
		{8, 2},
	}
	for _, shape := range shapes {
		for _, workers := range []int{1, 4} {
			shape, workers := shape, workers
			name := fmt.Sprintf("n=%d/epochs=%d/w=%d", shape.n, shape.epochs, workers)
			b.Run(name, func(b *testing.B) {
				sp := scenario.Spec{Family: scenario.Random, N: shape.n, Seed: 1,
					Churn: scenario.Churn{Epochs: shape.epochs, Joins: 1, Leaves: 1, RedrawFraction: 0.25}}
				b.ReportAllocs()
				var plays int
				for i := 0; i < b.N; i++ {
					tl, err := Build(sp)
					if err != nil {
						b.Fatal(err)
					}
					rep, err := core.CheckFaithfulnessCfg(NewSystem(tl, Faithful),
						core.CheckConfig{PerEpoch: true, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Faithful() {
						b.Fatalf("extended spec violated: %v", rep.Violations)
					}
					plays = rep.Checked
				}
				b.ReportMetric(float64(plays), "plays")
			})
		}
	}
}

// BenchmarkChurnScale is the big-n end of the ladder, in two tiers.
//
// The boundary/* rows are the published central-vs-sim ladder: they
// measure the epoch-boundary rebuild alone — Build, then forcing the
// honest state of every epoch via init — with each epoch seeded from
// one central solve ("central") and pinned to the protocol
// simulations ("sim", simulateOnly). No deviation search runs, so the
// rows are cheap enough for the per-push bench smoke, and their ratio
// is what the central path saves at a boundary.
func BenchmarkChurnScale(b *testing.B) {
	for _, n := range []int{16, 32} {
		for _, mode := range []string{"sim", "central"} {
			n, mode := n, mode
			b.Run(fmt.Sprintf("boundary/n=%d/%s", n, mode), func(b *testing.B) {
				sp := scenario.Spec{Family: scenario.Random, N: n, Seed: 1,
					Churn: scenario.Churn{Epochs: 3, Joins: 1, Leaves: 1, RedrawFraction: 0.25}}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tl, err := Build(sp)
					if err != nil {
						b.Fatal(err)
					}
					if mode == "sim" {
						tl.simulateOnly()
					}
					sys := NewSystem(tl, Faithful)
					if _, err := sys.Ledger(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	benchChurnScaleSweep(b)
}

// benchChurnScaleSweep is the opt-in tier: n={16,32} per-epoch
// deviation searches with profit-bound pruning, run with a NumCPU
// pool — the configuration a real sweep at that size would use. One
// n=16 search alone takes ~30 minutes sequential (658 plays, ~550GB
// allocated), so these rows stay opt-in (BENCH_CHURN_SCALE=1) and
// live in the nightly CI lane, not the per-push bench smoke.
func benchChurnScaleSweep(b *testing.B) {
	if os.Getenv("BENCH_CHURN_SCALE") == "" {
		return // sweep rows are nightly-lane only
	}
	for _, n := range []int{16, 32} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sp := scenario.Spec{Family: scenario.Random, N: n, Seed: 1,
				Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1, RedrawFraction: 0.25}}
			b.ReportAllocs()
			var checked, pruned int
			for i := 0; i < b.N; i++ {
				tl, err := Build(sp)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := core.CheckFaithfulnessCfg(NewSystem(tl, Faithful), core.CheckConfig{
					PerEpoch: true,
					Workers:  -1,
					Prune:    true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Faithful() {
					b.Fatalf("extended spec violated: %v", rep.Violations)
				}
				checked, pruned = rep.Checked, rep.Pruned
			}
			b.ReportMetric(float64(checked), "plays")
			b.ReportMetric(float64(pruned), "pruned")
		})
	}
}
