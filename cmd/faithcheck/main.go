// Command faithcheck runs the ex post Nash deviation search against
// both protocol variants and prints the verdict in the paper's
// IC/CC/AC vocabulary. Scenarios are declared through the scenario
// layer: a single Spec built from flags, or a whole named Suite.
//
// Usage:
//
//	faithcheck                                  # Figure 1
//	faithcheck -n 6 -seed 3                     # random biconnected scenario
//	faithcheck -topology prefattach -n 16       # an Internet-like family
//	faithcheck -topology waxman -n 12 -workload hotspot -costs heavy-tailed
//	faithcheck -suite smoke -seed 1             # sweep a named scenario suite
//	faithcheck -suite list                      # list available suites
//	faithcheck -workers 8                       # parallel deviation search
//	faithcheck -first-violation                 # stop at the first profitable deviation
//	faithcheck -n 8 -epochs 3                   # churn: replay the grid per epoch
//	faithcheck -suite churn -seed 1             # the epoch-dynamics suite
//	faithcheck -n 6 -loss 0.1 -burst 3          # lossy links: bursty seeded drops
//	faithcheck -suite loss -seed 1              # the lossy-links suite
//	faithcheck -n 6 -shards 2 -crash participant # sharded settlement with crash-restarts
//	faithcheck -suite settle -seed 1            # the sharded-settlement suite
//	faithcheck -n 8 -epochs 4 -stats            # per-epoch boundary rebuild vs sweep cost
//	faithcheck -suite internet -timings         # per-scenario elapsed + profile rungs
//
// With -epochs > 1 (or a suite whose specs carry a churn axis) the
// scenario becomes a timeline: nodes join and leave between
// construction phases, and the deviation grid — including the
// epoch-boundary deviations (stale catalogues, leave-without-settling,
// identity whitewashing) — is replayed per epoch through the same
// worker pool.
//
// -stats breaks a churn run's cost into the per-epoch boundary rebuild
// (and which path built it: delta repair, scratch central, or protocol
// sims) versus the deviation sweep — the incremental engine's win is
// visible here without running benchmarks. Suites with ProfileSizes
// (internet: n∈{48,100}) additionally run honest-profiling rungs after
// the deviation sweep: truthful construction and execution only, timed,
// raising the size ceiling beyond what the full grid can afford.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faithcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faithcheck", flag.ContinueOnError)
	topology := fs.String("topology", "", "topology family (figure1, clique, ring, ring-chords, random, prefattach, waxman, torus, twotier); empty = figure1, or random when -n is set")
	n := fs.Int("n", 0, "scenario size (0 = Figure 1)")
	workload := fs.String("workload", "", "flow workload (all-pairs, hotspot, sparse, gossip); empty = all-pairs")
	costs := fs.String("costs", "", "cost model (uniform, heavy-tailed, bimodal); empty = family default")
	suite := fs.String("suite", "", "sweep a named scenario suite instead of a single scenario ('list' prints the available suites)")
	seed := fs.Int64("seed", 1, "rng seed (single scenario) or suite base seed")
	workers := fs.Int("workers", 0, "deviation-search pool size (0 = NumCPU, 1 = sequential oracle)")
	first := fs.Bool("first-violation", false, "stop at the first profitable deviation in catalogue order")
	prune := fs.Bool("prune", false, "skip plays the system's static profit bound proves unprofitable (reported separately from checked)")
	verifyPruned := fs.Bool("verify-pruned", false, "debug: replay every pruned play and fail if the bound was unsound (implies -prune)")
	epochs := fs.Int("epochs", 1, "churn: number of epochs (1 = static)")
	joins := fs.Int("joins", 1, "churn: node arrivals per epoch boundary")
	leaves := fs.Int("leaves", 1, "churn: node departures per epoch boundary")
	redraw := fs.Float64("redraw", 0.25, "churn: per-boundary cost re-draw probability for surviving nodes")
	lossRate := fs.Float64("loss", 0, "lossy links: per-attempt drop rate in [0, 1) (0 = reliable network)")
	burst := fs.Float64("burst", 0, "lossy links: mean loss-burst length in messages (requires -loss; <= 1 = independent drops)")
	shards := fs.Int("shards", 0, "sharded settlement: shard count (0 = singleton bank)")
	crash := fs.String("crash", "", "sharded settlement: crash-fault plan (coordinator, participant, recovery); requires -shards")
	stats := fs.Bool("stats", false, "churn: print the per-epoch boundary-rebuild vs deviation-sweep timing/allocation breakdown (requires -epochs > 1)")
	timings := fs.Bool("timings", false, "suite: append per-scenario elapsed wall time to every summary line (requires -suite)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Failure-axis flags must never be silently ignored — a reliable,
	// static or singleton-bank result masquerading as a failure-axis
	// result is worse than an error. Track which were explicitly set.
	churnFlags := map[string]bool{}
	lossFlags := map[string]bool{}
	shardFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "epochs", "joins", "leaves", "redraw":
			churnFlags[f.Name] = true
		case "loss", "burst":
			lossFlags[f.Name] = true
		case "shards", "crash":
			shardFlags[f.Name] = true
		}
	})
	cfg := core.CheckConfig{Workers: *workers, EarlyStop: *first}
	if *workers == 0 {
		cfg.Workers = -1 // flag default: NumCPU
	}
	cfg.Prune = *prune || *verifyPruned
	cfg.VerifyPruned = *verifyPruned

	if *suite != "" {
		// A suite's churn and loss axes come from its definition.
		if len(churnFlags) > 0 {
			return fmt.Errorf("churn flags (-epochs/-joins/-leaves/-redraw) apply to single scenarios; suites define their own churn axis (try -suite churn)")
		}
		if len(lossFlags) > 0 {
			return fmt.Errorf("loss flags (-loss/-burst) apply to single scenarios; suites define their own loss axis (try -suite loss)")
		}
		if len(shardFlags) > 0 {
			return fmt.Errorf("shard flags (-shards/-crash) apply to single scenarios; suites define their own settlement axis (try -suite settle)")
		}
		if *stats {
			return fmt.Errorf("-stats applies to a single churn scenario (-epochs > 1); for suites use -timings")
		}
		return runSuite(*suite, *seed, cfg, *timings)
	}
	if *timings {
		return fmt.Errorf("-timings applies to suite sweeps (-suite); for a single churn scenario use -stats")
	}
	if *stats && *epochs <= 1 {
		// A static scenario has no epoch boundaries: there is nothing
		// for the breakdown to time.
		return fmt.Errorf("-stats has nothing to time without a churn timeline; add -epochs > 1")
	}
	if churnFlags["epochs"] && *epochs < 1 {
		return fmt.Errorf("-epochs must be >= 1, got %d", *epochs)
	}
	if *epochs <= 1 && (churnFlags["joins"] || churnFlags["leaves"] || churnFlags["redraw"]) {
		return fmt.Errorf("-joins/-leaves/-redraw take effect only with -epochs > 1")
	}
	if *epochs > 1 {
		if *joins < 0 || *leaves < 0 {
			return fmt.Errorf("-joins/-leaves must be >= 0, got %d/%d", *joins, *leaves)
		}
		if *redraw < 0 || *redraw > 1 {
			return fmt.Errorf("-redraw is a probability, got %g", *redraw)
		}
	}
	if lossFlags["burst"] && !lossFlags["loss"] {
		return fmt.Errorf("-burst takes effect only with -loss")
	}
	if lossFlags["loss"] && (*lossRate < 0 || *lossRate >= 1) {
		return fmt.Errorf("-loss is a drop rate in [0, 1), got %g", *lossRate)
	}
	if lossFlags["burst"] && *burst < 1 {
		return fmt.Errorf("-burst is a mean burst length >= 1, got %g", *burst)
	}
	if shardFlags["crash"] && !shardFlags["shards"] {
		return fmt.Errorf("-crash takes effect only with -shards")
	}
	if shardFlags["shards"] && *shards < 1 {
		return fmt.Errorf("-shards is a shard count >= 1, got %d", *shards)
	}

	spec, err := specFromFlags(*topology, *n, *workload, *costs, *seed)
	if err != nil {
		return err
	}
	if lossFlags["loss"] {
		spec.Loss = scenario.Loss{Rate: *lossRate, Burst: *burst}
	}
	if shardFlags["shards"] {
		// Unknown -crash names are rejected by the spec's own validation
		// at compile time, with the known plans in the message.
		spec.Shards = scenario.Shards{K: *shards, Crash: *crash}
	}
	if *epochs > 1 {
		spec.Churn = scenario.Churn{Epochs: *epochs, Joins: *joins, Leaves: *leaves, RedrawFraction: *redraw}
		fmt.Println("scenario:", spec.Describe())
		return checkChurnScenario(spec, cfg, *stats)
	}
	c, err := spec.Compile()
	if err != nil {
		return err
	}
	fmt.Println("scenario:", spec.Describe())
	return checkScenario(c, cfg)
}

// specFromFlags maps the single-scenario flags onto a scenario.Spec,
// preserving the legacy defaults: no flags = Figure 1, a bare -n =
// random biconnected with n/2 chords.
func specFromFlags(topology string, n int, workload, costs string, seed int64) (scenario.Spec, error) {
	spec := scenario.Spec{N: n, Seed: seed}
	switch {
	case topology != "":
		fam, err := scenario.ParseFamily(topology)
		if err != nil {
			return spec, err
		}
		spec.Family = fam
	case n == 0:
		spec.Family = scenario.Figure1
	default:
		spec.Family = scenario.Random
	}
	if workload != "" {
		w, err := scenario.ParseWorkload(workload)
		if err != nil {
			return spec, err
		}
		spec.Workload = w
	}
	if costs != "" {
		cm, err := scenario.ParseCostModel(costs)
		if err != nil {
			return spec, err
		}
		spec.CostModel = cm
	}
	return spec, nil
}

// checkScenario runs the deviation search against both protocol
// variants of one compiled scenario.
func checkScenario(c *scenario.Compiled, cfg core.CheckConfig) error {
	plainSys, faithSys := c.Systems()
	plain, err := core.CheckFaithfulnessCfg(plainSys, cfg)
	if err != nil {
		return err
	}
	report("plain FPSS", plain)

	faithfulRep, err := core.CheckFaithfulnessCfg(faithSys, cfg)
	if err != nil {
		return err
	}
	report("extended (faithful) FPSS", faithfulRep)
	return nil
}

// variantStats is one protocol variant's -stats record: the per-epoch
// boundary rebuild breakdown plus the deviation sweep's cost window.
type variantStats struct {
	build       []churn.BuildStat
	sweep       time.Duration
	sweepAllocs uint64
}

// churnReports builds the timeline for a dynamic spec and runs the
// per-epoch deviation search against both protocol variants — the one
// sequence the single-scenario and suite paths share. The faithful
// System is returned alive so callers can read its honest ledger. A
// non-nil stats slice (length 2: plain, faithful) turns on the
// boundary-vs-sweep cost breakdown.
func churnReports(sp scenario.Spec, cfg core.CheckConfig, stats []variantStats) (*churn.Timeline, core.Report, core.Report, *churn.System, error) {
	tl, err := churn.Build(sp)
	if err != nil {
		return nil, core.Report{}, core.Report{}, nil, err
	}
	cfg.PerEpoch = true
	check := func(i int, v churn.Variant) (core.Report, *churn.System, error) {
		sys := churn.NewSystem(tl, v)
		if stats != nil {
			// BuildStats forces init, so the boundary rebuilds are done —
			// and separately accounted — before the sweep window opens.
			sys.EnableBuildStats()
			bs, err := sys.BuildStats()
			if err != nil {
				return core.Report{}, nil, err
			}
			stats[i].build = bs
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			rep, err := core.CheckFaithfulnessCfg(sys, cfg)
			stats[i].sweep = time.Since(start)
			runtime.ReadMemStats(&m1)
			stats[i].sweepAllocs = m1.Mallocs - m0.Mallocs
			return rep, sys, err
		}
		rep, err := core.CheckFaithfulnessCfg(sys, cfg)
		return rep, sys, err
	}
	plainRep, _, err := check(0, churn.Plain)
	if err != nil {
		return nil, core.Report{}, core.Report{}, nil, fmt.Errorf("%s: plain: %w", sp.Describe(), err)
	}
	faithRep, faithSys, err := check(1, churn.Faithful)
	if err != nil {
		return nil, core.Report{}, core.Report{}, nil, fmt.Errorf("%s: faithful: %w", sp.Describe(), err)
	}
	return tl, plainRep, faithRep, faithSys, nil
}

// checkChurnScenario is the verbose single-scenario churn path: the
// membership timeline, both reports, and the honest ledger.
func checkChurnScenario(sp scenario.Spec, cfg core.CheckConfig, withStats bool) error {
	var stats []variantStats
	if withStats {
		stats = make([]variantStats, 2)
	}
	tl, plainRep, faithRep, faithSys, err := churnReports(sp, cfg, stats)
	if err != nil {
		return err
	}
	for _, e := range tl.Epochs {
		if e.Index == 0 {
			fmt.Printf("epoch 1: n=%d\n", e.N())
			continue
		}
		fmt.Printf("epoch %d: n=%d joined=%v left=%v\n", e.Index+1, e.N(), e.Joined, e.Left)
	}
	report("plain FPSS", plainRep)
	report("extended (faithful) FPSS", faithRep)
	if withStats {
		for i, name := range []string{"plain FPSS", "extended (faithful) FPSS"} {
			fmt.Printf("\n%s cost breakdown:\n", name)
			var total time.Duration
			var totalAllocs uint64
			for _, bs := range stats[i].build {
				fmt.Printf("  epoch %d boundary: mode=%-7s rebuild=%-12v allocs=%d\n",
					bs.Epoch+1, bs.Mode, bs.Rebuild, bs.Allocs)
				total += bs.Rebuild
				totalAllocs += bs.Allocs
			}
			fmt.Printf("  boundary total:   %v (%d allocs)\n", total, totalAllocs)
			fmt.Printf("  deviation sweep:  %v (%d allocs)\n", stats[i].sweep, stats[i].sweepAllocs)
		}
	}

	ledger, err := faithSys.Ledger()
	if err != nil {
		return err
	}
	fmt.Println("\nhonest carry-forward ledger (extended spec):")
	for _, acct := range ledger.Accounts() {
		status := "open"
		if ledger.Settled(acct) {
			status = "settled"
		}
		fmt.Printf("  identity %d: balance=%d (%s)\n", acct, ledger.Balance(acct), status)
	}
	return nil
}

// runSuite streams every scenario of a named suite through the
// worker-pool checker, one summary line per scenario, then a verdict
// over the whole sweep. Output is deterministic per (suite, seed);
// timings appends per-scenario wall time (which is not). Scenarios at
// n >= 16 get the profit-bound pruned checker automatically unless the
// caller configured a bound already — at that size the unpruned grid
// is what holds suites below internet scale. After the sweep, suites
// with a profiling tier run their honest rungs (see runProfileTier).
func runSuite(name string, seed int64, cfg core.CheckConfig, timings bool) error {
	if name == "list" {
		for _, s := range scenario.Suites() {
			fmt.Printf("%-12s %3d scenarios  %s\n", s.Name, len(s.Specs(seed)), s.Description)
		}
		return nil
	}
	s, ok := scenario.LookupSuite(name)
	if !ok {
		return fmt.Errorf("unknown suite %q (available: %v)", name, scenario.SuiteNames())
	}
	specs := s.Specs(seed)
	fmt.Printf("suite %s seed=%d: %d scenarios\n", s.Name, seed, len(specs))
	plainManipulable, faithfulClean := 0, 0
	for i, spec := range specs {
		start := time.Now()
		specCfg := cfg
		if spec.N >= 16 {
			// Large scenarios get the pruned checker by default: the
			// bound is sound (see -verify-pruned) and the pruned count is
			// reported on the summary line, so coverage stays auditable.
			specCfg.Prune = true
		}
		var plainRep, faithRep core.Report
		if spec.Churn.Dynamic() {
			// Dynamic scenario: per-epoch grid through the churn engine.
			var err error
			if _, plainRep, faithRep, _, err = churnReports(spec, specCfg, nil); err != nil {
				return err
			}
		} else {
			c, err := spec.Compile()
			if err != nil {
				return err
			}
			plainSys, faithSys := c.Systems()
			if plainRep, err = core.CheckFaithfulnessCfg(plainSys, specCfg); err != nil {
				return fmt.Errorf("%s: plain: %w", spec.Describe(), err)
			}
			if faithRep, err = core.CheckFaithfulnessCfg(faithSys, specCfg); err != nil {
				return fmt.Errorf("%s: faithful: %w", spec.Describe(), err)
			}
		}
		if len(plainRep.Violations) > 0 {
			plainManipulable++
		}
		if faithRep.Faithful() {
			faithfulClean++
		}
		// Scenarios whose workload starves every catalogued deviation
		// of profit are tagged explicitly: "plain non-manipulable" is a
		// finding about the scenario, not a checker failure (see the
		// pinned twotier hotspot study in the root tests).
		tag := ""
		if len(plainRep.Violations) == 0 {
			tag = " [plain non-manipulable]"
		}
		elapsed := ""
		if timings {
			elapsed = fmt.Sprintf(" [%v]", time.Since(start).Round(time.Millisecond))
		}
		fmt.Printf("[%d/%d] %s: plain violations=%d%s, faithful=%v (checked %d/%d plays, pruned %d)%s\n",
			i+1, len(specs), spec.Describe(), len(plainRep.Violations), tag, faithRep.Faithful(),
			faithRep.Checked, faithRep.Total(), faithRep.Pruned, elapsed)
		for _, v := range faithRep.Violations {
			fmt.Printf("        faithful violation: %s\n", v)
		}
	}
	fmt.Printf("suite %s: plain FPSS manipulable in %d/%d scenarios; extended spec faithful in %d/%d\n",
		s.Name, plainManipulable, len(specs), faithfulClean, len(specs))
	// A faithfulness violation is the sweep's failure mode: exit
	// non-zero so a CI lane running `faithcheck -suite` actually gates
	// on Theorem 1 holding across the suite. (Plain-FPSS
	// manipulability varies by scenario and is reported, not gated.)
	if faithfulClean < len(specs) {
		return fmt.Errorf("extended specification violated in %d/%d scenarios", len(specs)-faithfulClean, len(specs))
	}
	return runProfileTier(s, seed, timings)
}

// runProfileTier runs a suite's honest-profiling rungs: sizes above
// the deviation-search ceiling at which only the truthful profile is
// built — central construction, both variants seeded from the one
// solution, and both honest snapshots executed (the faithful one
// audited) — so construction scales are exercised and timed where the
// full grid is not yet affordable.
func runProfileTier(s scenario.Suite, seed int64, timings bool) error {
	profiles := s.ProfileSpecs(seed)
	if len(profiles) == 0 {
		return nil
	}
	fmt.Printf("\nprofile tier (honest construction + execution, no deviation grid): %d rungs\n", len(profiles))
	for i, sp := range profiles {
		start := time.Now()
		c, err := sp.Compile()
		if err != nil {
			return fmt.Errorf("profile %s: %w", sp.Describe(), err)
		}
		centralStart := time.Now()
		sol, err := fpss.ComputeCentral(c.Graph)
		if err != nil {
			return fmt.Errorf("profile %s: central: %w", sp.Describe(), err)
		}
		central := time.Since(centralStart)
		plainSys, faithSys := c.Systems()
		plainSys.SeedHonest(sol)
		faithSys.SeedHonest(sol)
		if _, err := plainSys.Snapshot(); err != nil {
			return fmt.Errorf("profile %s: plain snapshot: %w", sp.Describe(), err)
		}
		if _, err := faithSys.Snapshot(); err != nil {
			return fmt.Errorf("profile %s: faithful snapshot: %w", sp.Describe(), err)
		}
		elapsed := ""
		if timings {
			elapsed = fmt.Sprintf(" [total %v, central %v]",
				time.Since(start).Round(time.Millisecond), central.Round(time.Millisecond))
		}
		fmt.Printf("[profile %d/%d] %s: honest profile ok%s\n", i+1, len(profiles), sp.Describe(), elapsed)
	}
	return nil
}

func report(name string, r core.Report) {
	fmt.Printf("\n%s: checked %d of %d deviation plays (%d pruned)\n", name, r.Checked, r.Total(), r.Pruned)
	fmt.Printf("  IC=%v CC=%v AC=%v faithful=%v\n", r.IC(), r.CC(), r.AC(), r.Faithful())
	for _, v := range r.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
}
