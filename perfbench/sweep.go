package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"runtime"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/rational"
	"repro/internal/scenario"
)

// sweepSpecs is the sweep workload's scenario set for a seed: the
// smoke suite's n=6 specs, every loss and settle suite spec, and, with
// churn, the churn suite's first spec. Together they reach every play
// path: protocol replays, lossy replays, exec-only and settle-only
// overlays and per-epoch churn plays.
func sweepSpecs(seed int64, churn bool) ([]scenario.Spec, error) {
	var specs []scenario.Spec
	for _, pick := range []struct {
		suite string
		keep  func(i int, sp scenario.Spec) bool
	}{
		{"smoke", func(_ int, sp scenario.Spec) bool { return sp.N == 6 }},
		{"loss", func(int, scenario.Spec) bool { return true }},
		{"settle", func(int, scenario.Spec) bool { return true }},
		{"churn", func(i int, _ scenario.Spec) bool { return churn && i == 0 }},
	} {
		s, ok := scenario.LookupSuite(pick.suite)
		if !ok {
			return nil, fmt.Errorf("suite %q not registered", pick.suite)
		}
		for i, sp := range s.Specs(seed) {
			if pick.keep(i, sp) {
				specs = append(specs, sp)
			}
		}
	}
	return specs, nil
}

// sweepJob is one spec set up for checking: both protocol variants,
// snapshotted, optionally wrapped for play tracing.
type sweepJob struct {
	spec     scenario.Spec
	variants [numVariants]core.System
	perEpoch bool
}

// setUpSweep compiles (or builds the churn timeline of) every spec and
// takes both variants' honest snapshots — the sweep's set-up. Churn
// timelines have their central chain forced first so the central
// solve, boundary repair and per-epoch snapshots time separately.
func setUpSweep(specs []scenario.Spec, lt *layerTimes) ([]sweepJob, error) {
	jobs := make([]sweepJob, 0, len(specs))
	for _, sp := range specs {
		job := sweepJob{spec: sp, perEpoch: sp.Churn.Dynamic()}
		if job.perEpoch {
			var tl *churn.Timeline
			if err := lt.time("churn.build", func() (err error) {
				tl, err = churn.Build(sp)
				return err
			}); err != nil {
				return nil, fmt.Errorf("%s: %w", sp.Describe(), err)
			}
			if err := forceCentralChain(tl, lt); err != nil {
				return nil, fmt.Errorf("%s: %w", sp.Describe(), err)
			}
			job.variants = [numVariants]core.System{churn.NewSystem(tl, churn.Plain), churn.NewSystem(tl, churn.Faithful)}
		} else {
			var comp *scenario.Compiled
			if err := lt.time("scenario.compile", func() (err error) {
				comp, err = sp.Compile()
				return err
			}); err != nil {
				return nil, err
			}
			plain, faithful := comp.Systems()
			job.variants = [numVariants]core.System{plain, faithful}
		}
		for _, sys := range job.variants {
			if err := lt.time("rational.snapshot", func() error {
				_, err := core.AsStateful(sys).Snapshot()
				return err
			}); err != nil {
				return nil, fmt.Errorf("%s: snapshot: %w", sp.Describe(), err)
			}
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// forceCentralChain materializes every epoch's central solution in
// order: a scratch solve at epoch 0, a delta repair at each boundary.
func forceCentralChain(tl *churn.Timeline, lt *layerTimes) error {
	for _, e := range tl.Epochs {
		if err := centralStep(e, lt); err != nil {
			return err
		}
	}
	return nil
}

// centralStep materializes one epoch's central solution, charged to
// fpss.central at epoch 0 and to churn.boundary after it. The previous
// epoch's must already exist, or the step would time the whole chain.
func centralStep(e *churn.Epoch, lt *layerTimes) error {
	layer := "churn.boundary"
	if e.Index == 0 {
		layer = "fpss.central"
	}
	if err := lt.time(layer, func() error {
		_, _, err := e.CentralState()
		return err
	}); err != nil {
		return fmt.Errorf("epoch %d central: %w", e.Index, err)
	}
	return nil
}

// traced wraps both variants of a job for play timing.
func (j sweepJob) traced(t *playTrace) sweepJob {
	out := j
	switch sys := j.variants[variantPlain].(type) {
	case *churn.System:
		out.variants[variantPlain] = tracedChurn{System: sys, class: variantPlain*numKinds + kindEpoch, trace: t}
		out.variants[variantFaithful] = tracedChurn{System: j.variants[variantFaithful].(*churn.System), class: variantFaithful*numKinds + kindEpoch, trace: t}
	default:
		out.variants[variantPlain] = tracedPlain{PlainSystem: j.variants[variantPlain].(*rational.PlainSystem), trace: t}
		out.variants[variantFaithful] = tracedFaithful{FaithfulSystem: j.variants[variantFaithful].(*rational.FaithfulSystem), trace: t}
	}
	return out
}

// sweepPass is one deviation sweep over a spec set: plain and
// faithful searches of every spec.
type sweepPass struct {
	specs   []scenario.Spec
	setup   time.Duration
	run     time.Duration
	checks  [][numVariants]time.Duration // per spec and variant
	reports [][numVariants]core.Report
	costs   []costDelta // per spec
	layers  *layerTimes
	trace   *playTrace
}

// plays is the number of plays the pass checked.
func (p *sweepPass) plays() int {
	n := 0
	for _, pair := range p.reports {
		for _, rep := range pair {
			n += rep.Checked
		}
	}
	return n
}

// sweepSetups is how many times a pass sets up its specs. A set-up
// takes about 30 ms, so setup_s is the median of several.
const sweepSetups = 5

// runSweepPass sets up every spec (sweepSetups times, keeping the last
// set-up) and then runs the plain and faithful searches over it.
func runSweepPass(specs []scenario.Spec, cfg core.CheckConfig, traced bool, setups *durations) (*sweepPass, error) {
	p := &sweepPass{specs: specs}
	var jobs []sweepJob
	for i := 0; i < sweepSetups; i++ {
		lt := newLayerTimes()
		start := time.Now()
		var err error
		if jobs, err = setUpSweep(specs, lt); err != nil {
			return nil, err
		}
		p.setup, p.layers = time.Since(start), lt
		*setups = append(*setups, p.setup)
	}
	if traced {
		p.trace = newPlayTrace(cfg.Workers)
		for i := range jobs {
			jobs[i] = jobs[i].traced(p.trace)
		}
	}
	start := time.Now()
	for _, job := range jobs {
		var reps [numVariants]core.Report
		var took [numVariants]time.Duration
		mem := openCost()
		for v, sys := range job.variants {
			c := cfg
			c.PerEpoch = job.perEpoch
			t0 := time.Now()
			rep, err := core.CheckFaithfulnessCfg(sys, c)
			took[v] = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: variant %d: %w", job.spec.Describe(), v, err)
			}
			reps[v] = rep
		}
		p.reports = append(p.reports, reps)
		p.checks = append(p.checks, took)
		p.costs = append(p.costs, mem.close())
	}
	p.run = time.Since(start)
	return p, nil
}

// sweepPassTime is about what one untraced pass of eleven static specs
// takes on a shared 2-CPU host (7–13 s measured, depending on what else
// the host runs). The run sweeps as many passes as fit its time at that
// rate: a fixed count, so every run of a given length checks the same
// specs whatever the host's speed.
const sweepPassTime = 10 * time.Second

// sweepBase is the suite seed of the sweep's first spec set, the one
// faithcheck -suite uses by default; later passes key their sets from
// it. The graphs do not follow the workload seed: a spec's cost per
// play depends heavily on its graph (TotalAlloc per play spread 0.43
// of the median across five seeds when each seed drew its own), so
// seed-drawn graphs would hide any code change under the draw.
const sweepBase = 1

// runSweep is the sweep workload: full deviation sweeps over fixed
// spec sets, in an order drawn from the workload seed. The figures
// pool the whole run.
// The churn spec costs as much as five static ones, so only the traced
// run sweeps it (in its first pass), to time the per-epoch plays;
// untraced runs spend that time on more static specs.
// With tracing each set is swept twice, untraced then traced, and the
// two passes' reports must be identical: a wrapper that changed what
// core computes fails the run.
func runSweep(o options, out io.Writer) (*result, error) {
	cfg := core.CheckConfig{Workers: runtime.NumCPU()}
	r := newResult()
	var setups durations
	var untraced, traced []*sweepPass
	sets := max(1, int(o.budget()/sweepPassTime))
	if o.trace {
		sets = max(1, sets/2)
	}
	for set := 0; set < sets; set++ {
		base := int64(sweepBase)
		if set > 0 {
			base = keyedSeed(sweepBase, uint64(set))
		}
		specs, err := sweepSpecs(base, o.trace && set == 0)
		if err != nil {
			return nil, err
		}
		st := uint64(keyedSeed(o.seed, uint64(set)))
		for i := len(specs) - 1; i > 0; i-- {
			st = scenario.Mix64(st + uint64(i))
			j := int(st % uint64(i+1))
			specs[i], specs[j] = specs[j], specs[i]
		}
		p, err := runSweepPass(specs, cfg, false, &setups)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, p)
		printVerdicts(out, p)
		r.attempted += len(specs)
		r.failed += unfaithful(p)
		if o.trace {
			tp, err := runSweepPass(specs, cfg, true, &setups)
			if err != nil {
				return nil, err
			}
			traced = append(traced, tp)
			r.attempted += len(specs)
			r.failed += unfaithful(tp) + mismatched(p, tp)
		}
	}

	// Specs differ several-fold in cost, so the figures pool the whole
	// run (total over total) rather than take medians over specs.
	// run_ms is CPU time: with both CPUs busy, the wall time of a check
	// follows how much of them the host gives to other tenants, and the
	// same code's spec_ms spread 0.24–0.44 of its median over ten runs.
	var runs []float64
	specs := 0
	var mem costDelta
	var work time.Duration
	plays := 0
	for _, p := range untraced {
		runs = append(runs, p.run.Seconds())
		work += p.run
		plays += p.plays()
		specs += len(p.specs)
		for _, c := range p.costs {
			mem.add(c)
		}
	}
	r.set("setup_s", median(setups.secondsList()))
	r.set("run_ms", ms(mem.cpu)/float64(specs))
	r.perOp(mem, plays)
	r.note("spec_cpu_ms", r.values["run_ms"], "ms")
	r.note("spec_ms", ms(work)/float64(specs), "ms")
	r.note("plays_per_s", float64(plays)/work.Seconds(), "1/s")
	r.note("run_s", median(runs), "s")
	r.note("alloc_mb", float64(mem.allocBytes)/float64(len(untraced))/1e6, "MB")
	r.note("passes", float64(len(untraced)), "count")
	r.note("specs", float64(specs), "count")

	if len(traced) > 0 {
		reportSweepLayers(r, untraced, traced, cfg.Workers)
	}
	return r, nil
}

// unfaithful counts the specs whose faithful report has a violation.
func unfaithful(p *sweepPass) int {
	n := 0
	for _, reps := range p.reports {
		if !reps[variantFaithful].Faithful() {
			n++
		}
	}
	return n
}

// mismatched counts the specs whose reports differ between two passes
// over the same spec set.
func mismatched(a, b *sweepPass) int {
	n := 0
	for i := range a.reports {
		if !reflect.DeepEqual(a.reports[i], b.reports[i]) {
			n++
		}
	}
	return n
}

// printVerdicts prints one digest line per spec: two runs on one seed
// must print identical lines.
func printVerdicts(out io.Writer, p *sweepPass) {
	for i, sp := range p.specs {
		plain, faithful := p.reports[i][variantPlain], p.reports[i][variantFaithful]
		h := fnv.New64a()
		for _, rep := range p.reports[i] {
			fmt.Fprintf(h, "%d/%d|", rep.Checked, rep.Pruned)
			for _, v := range rep.Violations {
				fmt.Fprintf(h, "%s;", v)
			}
		}
		fmt.Fprintf(out, "verdict sweep %-72s plain=%d/%d viol=%d faithful=%v/%d digest=%016x\n",
			sp.Describe(), plain.Checked, plain.Total(), len(plain.Violations), faithful.Faithful(), faithful.Checked, h.Sum64())
	}
}

// reportSweepLayers sets the per-layer metrics from the traced passes,
// averaged per pass. trace.overhead pairs each traced pass with the
// untraced pass over the same specs.
func reportSweepLayers(r *result, untraced, traced []*sweepPass, workers int) {
	k := float64(len(traced))
	var classes [numPlayClasses]durations
	var checkWall, wall time.Duration
	var mem costDelta
	var overhead []float64
	lt := newLayerTimes()
	plays, pruned := 0, 0
	for i, p := range traced {
		for c, ds := range p.trace.merged() {
			classes[c] = append(classes[c], ds...)
		}
		for j, took := range p.checks {
			checkWall += took[variantPlain] + took[variantFaithful]
			pruned += p.reports[j][variantPlain].Pruned + p.reports[j][variantFaithful].Pruned
		}
		wall += p.setup + p.run
		overhead = append(overhead, p.run.Seconds()/untraced[i].run.Seconds())
		lt.merge(p.layers)
		for _, c := range p.costs {
			mem.add(c)
		}
		plays += p.plays()
	}
	var busy time.Duration
	for c, ds := range classes {
		name := playClassName(c)
		busy += ds.sum()
		r.set(name+".n", float64(len(ds))/k)
		r.set(name+".busy_ms", ms(ds.sum())/k)
		r.set(name+".p50_us", quantile(ds.micros(), 0.5))
		r.set(name+".p99_us", quantile(ds.micros(), 0.99))
	}
	r.set("core.check_ms", ms(checkWall)/k)
	r.set("core.plays", float64(plays)/k)
	r.set("core.pruned", float64(pruned)/k)
	r.set("core.busy_ratio", busy.Seconds()/(float64(workers)*checkWall.Seconds()))
	lt.report(r, len(traced))
	mem.gcN /= uint32(len(traced))
	mem.gcPause /= time.Duration(len(traced))
	r.setRuntime(mem)
	covered := lt.total() + busy/time.Duration(workers)
	r.set("trace.coverage", covered.Seconds()/wall.Seconds())
	r.set("trace.overhead", median(overhead))
}
