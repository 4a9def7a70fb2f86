// Package repro's root benchmarks regenerate every experiment table
// (E1–E13, see DESIGN.md §4 and EXPERIMENTS.md). Each benchmark both
// times the experiment and reports its headline quantity as a custom
// metric, so `go test -bench=.` reproduces the paper's qualitative
// claims in one run. Experiments are fetched from the registry — a
// newly registered experiment is picked up by BenchmarkAll without
// touching this file.
package repro_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faithful"
	"repro/internal/scenario"
)

// lookupExperiment selects the registered experiment with the given ID.
func lookupExperiment(id string) (experiments.Experiment, bool) {
	for _, e := range experiments.Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return experiments.Experiment{}, false
}

// mustTable fetches an experiment from the registry and generates its
// table, optionally mutating the registered default Params.
func mustTable(b *testing.B, id string, mutate func(*experiments.Params)) *experiments.Table {
	b.Helper()
	exp, ok := lookupExperiment(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	if exp.Slow && testing.Short() {
		b.Skipf("%s is a deviation search; skipped under -short", id)
	}
	p := exp.Params
	if mutate != nil {
		mutate(&p)
	}
	t, err := exp.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func cellInt(b *testing.B, t *experiments.Table, row, col int) int64 {
	b.Helper()
	v, err := strconv.ParseInt(t.Rows[row][col], 10, 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

func cellFloat(b *testing.B, t *experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

// BenchmarkAll regenerates every registered experiment through the
// parallel runner — the wall-clock of a full table refresh, the
// headline quantity the runner subsystem exists to shrink.
func BenchmarkAll(b *testing.B) {
	if testing.Short() {
		b.Skip("full registry run is the slow lane")
	}
	tables := 0
	for i := 0; i < b.N; i++ {
		out, err := experiments.Runner{}.Run(experiments.Experiments())
		if err != nil {
			b.Fatal(err)
		}
		tables = len(out)
	}
	b.ReportMetric(float64(tables), "tables")
}

// BenchmarkSuite compiles every scenario of a named suite and drives
// one honest faithful-protocol run per scenario — the fixed cost a
// suite sweep pays before any deviation search. The ladder spans the
// built-in suites that finish in seconds (the 54-scenario "internet"
// sweep is a manual job, not a bench lane). Published as
// BENCH_scenario.json with a committed baseline.
func BenchmarkSuite(b *testing.B) {
	for _, name := range []string{"smoke", "grid", "workloads"} {
		s, ok := scenario.LookupSuite(name)
		if !ok {
			b.Fatalf("suite %s not registered", name)
		}
		b.Run(name, func(b *testing.B) {
			var msgs float64
			var scenarios int
			for i := 0; i < b.N; i++ {
				specs := s.Specs(1)
				scenarios = len(specs)
				msgs = 0
				for _, sp := range specs {
					c, err := sp.Compile()
					if err != nil {
						b.Fatal(err)
					}
					res, err := faithful.Run(c.FaithfulConfig())
					if err != nil {
						b.Fatal(err)
					}
					if !res.Completed {
						b.Fatalf("honest run not green-lit on %s", sp.Describe())
					}
					msgs += float64(res.Construction.Sent)
				}
			}
			b.ReportMetric(float64(scenarios), "scenarios")
			b.ReportMetric(msgs, "construction-msgs")
		})
	}
}

// BenchmarkSuiteCheck runs the full two-sided deviation search on one
// small scenario per Internet-like family — the per-scenario unit of
// work a faithcheck -suite sweep scales by. Guarded like the other
// deviation searches: skipped under -short.
func BenchmarkSuiteCheck(b *testing.B) {
	if testing.Short() {
		b.Skip("deviation searches are the slow lane")
	}
	specs := []scenario.Spec{
		{Family: scenario.PrefAttach, N: 6, Seed: 1},
		{Family: scenario.TwoTier, N: 6, Workload: scenario.WorkloadHotspot, Seed: 1},
		{Family: scenario.Waxman, N: 6, CostModel: scenario.CostHeavyTailed, Seed: 1},
	}
	for _, sp := range specs {
		sp := sp
		b.Run(string(sp.Family), func(b *testing.B) {
			var checked, plainViolations int
			for i := 0; i < b.N; i++ {
				c, err := sp.Compile()
				if err != nil {
					b.Fatal(err)
				}
				plainSys, faithSys := c.Systems()
				plainRep, err := core.CheckFaithfulnessCfg(plainSys, core.CheckConfig{Workers: -1})
				if err != nil {
					b.Fatal(err)
				}
				faithRep, err := core.CheckFaithfulnessCfg(faithSys, core.CheckConfig{Workers: -1})
				if err != nil {
					b.Fatal(err)
				}
				// Theorem 1 must hold on every scenario; the plain
				// protocol's manipulability varies with workload and
				// seed (tiny hotspot scenarios can leave no profitable
				// deviation), so it is reported, not asserted.
				if !faithRep.Faithful() {
					b.Fatalf("%s: faithful spec violated: %v", sp.Describe(), faithRep.Violations)
				}
				plainViolations = len(plainRep.Violations)
				checked = plainRep.Checked + faithRep.Checked
			}
			b.ReportMetric(float64(checked), "plays")
			b.ReportMetric(float64(plainViolations), "plain-violations")
		})
	}
}

// BenchmarkLoss is the lossy-links perf ladder: the honest rungs time
// a faithful-protocol run under increasing drop rates (the retry
// envelope's cost is extra events and delay, reported as the retry and
// drop counts), and the check rung times the full two-sided deviation
// search — enlarged catalogue included — on one lossy scenario.
// Published as BENCH_loss.json with a committed baseline.
func BenchmarkLoss(b *testing.B) {
	rungs := []scenario.Loss{
		{},                     // reliable control
		{Rate: 0.05},           // light i.i.d. loss
		{Rate: 0.15, Burst: 3}, // moderate bursty loss
		{Rate: 0.25, Burst: 4}, // the tolerable-threshold rung
	}
	for _, loss := range rungs {
		loss := loss
		b.Run(fmt.Sprintf("honest/rate=%g,burst=%g", loss.Rate, loss.Burst), func(b *testing.B) {
			sp := scenario.Spec{Family: scenario.Random, N: 8, Seed: 1, Loss: loss}
			c, err := sp.Compile()
			if err != nil {
				b.Fatal(err)
			}
			var dropped, retried float64
			for i := 0; i < b.N; i++ {
				res, err := faithful.Run(c.FaithfulConfig())
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed || res.Construction.Lost != 0 {
					b.Fatalf("honest lossy run not green-lit on %s: completed=%v lost=%d",
						sp.Describe(), res.Completed, res.Construction.Lost)
				}
				dropped = float64(res.Construction.Dropped)
				retried = float64(res.Construction.Retried)
			}
			b.ReportMetric(dropped, "drops")
			b.ReportMetric(retried, "retries")
		})
	}
	b.Run("check/rate=0.1,burst=3", func(b *testing.B) {
		if testing.Short() {
			b.Skip("deviation searches are the slow lane")
		}
		sp := scenario.Spec{Family: scenario.Random, N: 6, Seed: 1, Loss: scenario.Loss{Rate: 0.1, Burst: 3}}
		var checked int
		for i := 0; i < b.N; i++ {
			c, err := sp.Compile()
			if err != nil {
				b.Fatal(err)
			}
			plainSys, faithSys := c.Systems()
			plainRep, err := core.CheckFaithfulnessCfg(plainSys, core.CheckConfig{Workers: -1})
			if err != nil {
				b.Fatal(err)
			}
			faithRep, err := core.CheckFaithfulnessCfg(faithSys, core.CheckConfig{Workers: -1})
			if err != nil {
				b.Fatal(err)
			}
			if !faithRep.Faithful() {
				b.Fatalf("%s: faithful spec violated: %v", sp.Describe(), faithRep.Violations)
			}
			checked = plainRep.Checked + faithRep.Checked
		}
		b.ReportMetric(float64(checked), "plays")
	})
}

// BenchmarkE1Figure1 regenerates Figure 1's lowest-cost paths.
func BenchmarkE1Figure1(b *testing.B) {
	var xzCost int64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E1", nil)
		xzCost = cellInt(b, t, 0, 1)
	}
	b.ReportMetric(float64(xzCost), "cost(X→Z)")
}

// BenchmarkE2Example1 regenerates Example 1's manipulation sweep.
func BenchmarkE2Example1(b *testing.B) {
	var naiveGain, vcgGain int64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E2", nil)
		truthNaive, truthVCG := cellInt(b, t, 0, 1), cellInt(b, t, 0, 2)
		bestNaive, bestVCG := truthNaive, truthVCG
		for r := range t.Rows {
			if v := cellInt(b, t, r, 1); v > bestNaive {
				bestNaive = v
			}
			if v := cellInt(b, t, r, 2); v > bestVCG {
				bestVCG = v
			}
		}
		naiveGain, vcgGain = bestNaive-truthNaive, bestVCG-truthVCG
	}
	b.ReportMetric(float64(naiveGain), "naive-lie-gain")
	b.ReportMetric(float64(vcgGain), "vcg-lie-gain")
}

// BenchmarkE3Detection regenerates the manipulation-detection matrix.
func BenchmarkE3Detection(b *testing.B) {
	caught := 0.0
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E3", nil)
		caught = float64(len(t.Rows))
	}
	b.ReportMetric(caught, "deviations-all-caught")
}

// BenchmarkE4Overhead regenerates the checker-overhead sweep.
func BenchmarkE4Overhead(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E4", nil)
		ratio = cellFloat(b, t, len(t.Rows)-1, 4)
	}
	b.ReportMetric(ratio, "msg-overhead@n24")
}

// BenchmarkE5BFTBaseline regenerates the BFT comparison.
func BenchmarkE5BFTBaseline(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E5", nil)
		ratio = cellFloat(b, t, len(t.Rows)-1, 6)
	}
	b.ReportMetric(ratio, "bft/faithful-msgs")
}

// BenchmarkE6Faithfulness runs the deviation search (Theorem 1).
func BenchmarkE6Faithfulness(b *testing.B) {
	var plainViolations, faithfulViolations int64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E6", func(p *experiments.Params) { p.Trials = 1 })
		plainViolations = cellInt(b, t, 0, 3)
		faithfulViolations = cellInt(b, t, 0, 5)
	}
	b.ReportMetric(float64(plainViolations), "plain-violations")
	b.ReportMetric(float64(faithfulViolations), "faithful-violations")
}

// BenchmarkE7PhaseDecomposition regenerates the combinatorial table.
func BenchmarkE7PhaseDecomposition(b *testing.B) {
	var reduction int64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E7", nil)
		reduction = cellInt(b, t, len(t.Rows)-1, 4)
	}
	b.ReportMetric(float64(reduction), "reduction@8pts")
}

// BenchmarkE8Election regenerates the leader-election comparison.
func BenchmarkE8Election(b *testing.B) {
	var naive, faithful float64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E8", nil)
		naive = cellFloat(b, t, 0, 3)
		faithful = cellFloat(b, t, 1, 3)
	}
	b.ReportMetric(naive, "naive-correct-rate")
	b.ReportMetric(faithful, "faithful-correct-rate")
}

// BenchmarkE9Convergence regenerates the convergence sweep.
func BenchmarkE9Convergence(b *testing.B) {
	var perNode float64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E9", nil)
		perNode = cellFloat(b, t, len(t.Rows)-1, 5)
	}
	b.ReportMetric(perNode, "msgs-per-node@n30")
}

// BenchmarkE10Execution regenerates the payment-enforcement table.
func BenchmarkE10Execution(b *testing.B) {
	var worstNet int64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E10", nil)
		worstNet = 0
		for r := 1; r < len(t.Rows); r++ {
			if v := cellInt(b, t, r, 3); v < worstNet {
				worstNet = v
			}
		}
	}
	b.ReportMetric(float64(worstNet), "worst-fraud-net")
}

// BenchmarkE11CheckerAblation regenerates the checker-assignment
// ablation.
func BenchmarkE11CheckerAblation(b *testing.B) {
	rows := 0.0
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E11", nil)
		rows = float64(len(t.Rows))
	}
	b.ReportMetric(rows, "assignments")
}

// BenchmarkE12Failstop regenerates the failure-model interplay table.
func BenchmarkE12Failstop(b *testing.B) {
	blocked := 0.0
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E12", nil)
		blocked = 0
		for _, row := range t.Rows {
			if row[1] == "false" {
				blocked++
			}
		}
	}
	b.ReportMetric(blocked, "crashes-blocking-progress")
}

// BenchmarkE13DamageContainment regenerates the victim-damage table.
func BenchmarkE13DamageContainment(b *testing.B) {
	var worstPlain int64
	for i := 0; i < b.N; i++ {
		t := mustTable(b, "E13", nil)
		worstPlain = 0
		for r := range t.Rows {
			if v := cellInt(b, t, r, 1); v > worstPlain {
				worstPlain = v
			}
		}
	}
	b.ReportMetric(float64(worstPlain), "worst-victim-loss-plain")
}
