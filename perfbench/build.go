package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/churn"
	"repro/internal/fpss"
	"repro/internal/scenario"
)

// buildSpecs is the build workload's input for a seed: the internet
// suite's honest-profiling rungs (three families at n∈{48,100}) and
// two n=64 churn timelines of six epochs.
func buildSpecs(seed int64) (profiles, timelines []scenario.Spec, err error) {
	s, ok := scenario.LookupSuite("internet")
	if !ok {
		return nil, nil, fmt.Errorf("suite %q not registered", "internet")
	}
	for i, fam := range []scenario.Family{scenario.PrefAttach, scenario.Random} {
		timelines = append(timelines, scenario.Spec{
			Family:    fam,
			N:         64,
			Workload:  scenario.WorkloadAllPairs,
			CostModel: scenario.CostUniform,
			Churn:     scenario.Churn{Epochs: 6, Joins: 1, Leaves: 1, RedrawFraction: 0.25},
			Seed:      keyedSeed(seed, uint64(i)),
		})
	}
	return s.ProfileSpecs(seed), timelines, nil
}

// keyedSeed derives a positive spec seed from the workload seed and a
// per-spec key.
func keyedSeed(seed int64, key uint64) int64 {
	return int64(scenario.Mix64(uint64(seed)^(key+1)*0x9e3779b97f4a7c15)>>2) + 1
}

// buildPass is one honest-construction pass's measurements.
type buildPass struct {
	setup  time.Duration
	run    time.Duration
	ops    durations // one per profile rung, timeline epoch and timeline init
	mem    costDelta
	layers *layerTimes
	tls    []*churn.Timeline
}

// runBuildPass compiles every input (the set-up), then builds each
// profile rung — central solve, both variants seeded from it, both
// honest snapshots — and forces each timeline's central chain followed
// by its faithful system's initialization.
func runBuildPass(profiles, timelines []scenario.Spec) (*buildPass, error) {
	p := &buildPass{layers: newLayerTimes()}
	lt := p.layers
	start := time.Now()
	comps := make([]*scenario.Compiled, len(profiles))
	for i, sp := range profiles {
		if err := lt.time("scenario.compile", func() (err error) {
			comps[i], err = sp.Compile()
			return err
		}); err != nil {
			return nil, err
		}
	}
	p.tls = make([]*churn.Timeline, len(timelines))
	for i, sp := range timelines {
		if err := lt.time("churn.build", func() (err error) {
			p.tls[i], err = churn.Build(sp)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Describe(), err)
		}
	}
	p.setup = time.Since(start)

	mem := openCost()
	start = time.Now()
	for i, c := range comps {
		t0 := time.Now()
		var sol *fpss.Solution
		if err := lt.time("fpss.central", func() (err error) {
			sol, err = fpss.ComputeCentral(c.Graph)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: central: %w", profiles[i].Describe(), err)
		}
		plain, faithful := c.Systems()
		plain.SeedHonest(sol)
		faithful.SeedHonest(sol)
		for _, snap := range []func() error{
			func() error { _, err := plain.Snapshot(); return err },
			func() error { _, err := faithful.Snapshot(); return err },
		} {
			if err := lt.time("rational.snapshot", snap); err != nil {
				return nil, fmt.Errorf("%s: snapshot: %w", profiles[i].Describe(), err)
			}
		}
		p.ops = append(p.ops, time.Since(t0))
	}
	for i, tl := range p.tls {
		for _, e := range tl.Epochs {
			t0 := time.Now()
			if err := centralStep(e, lt); err != nil {
				return nil, fmt.Errorf("%s: %w", timelines[i].Describe(), err)
			}
			p.ops = append(p.ops, time.Since(t0))
		}
		t0 := time.Now()
		if err := lt.time("rational.snapshot", func() error {
			_, err := churn.NewSystem(tl, churn.Faithful).Snapshot()
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: faithful init: %w", timelines[i].Describe(), err)
		}
		p.ops = append(p.ops, time.Since(t0))
	}
	p.run = time.Since(start)
	p.mem = mem.close()
	return p, nil
}

// verifyTimelines compares every delta-evolved epoch's solution with a
// scratch fpss.ComputeCentral on that epoch's graph, outside any timed
// window, and returns the number of epochs that differ.
func verifyTimelines(out io.Writer, specs []scenario.Spec, tls []*churn.Timeline) (int, error) {
	wrong := 0
	for i, tl := range tls {
		bad := 0
		for _, e := range tl.Epochs[1:] {
			c, ok, err := e.CentralState()
			if err != nil || !ok {
				bad++
				continue
			}
			want, err := fpss.ComputeCentral(e.Compiled.Graph)
			if err != nil {
				return 0, fmt.Errorf("%s epoch %d: scratch central: %w", specs[i].Describe(), e.Index, err)
			}
			if !reflect.DeepEqual(c.Sol, want) {
				bad++
			}
		}
		fmt.Fprintf(out, "verdict build %-72s epochs=%d evolved_wrong=%d\n", specs[i].Describe(), len(tl.Epochs), bad)
		wrong += bad
	}
	return wrong, nil
}

// runBuild is the build workload: honest construction at scale with no
// deviation grid. Each pass builds fresh inputs derived from the seed
// (the first from the seed itself), so a run's figures summarize many
// graphs rather than one; every pass is verified outside its timed
// window.
func runBuild(o options, out io.Writer) (*result, error) {
	r := newResult()
	var passes []*buildPass
	begin := time.Now()
	for pass := 0; ; pass++ {
		start := time.Now()
		base := o.seed
		if pass > 0 {
			base = keyedSeed(o.seed, uint64(pass))
		}
		profiles, timelines, err := buildSpecs(base)
		if err != nil {
			return nil, err
		}
		p, err := runBuildPass(profiles, timelines)
		if err != nil {
			return nil, err
		}
		wrong, err := verifyTimelines(out, timelines, p.tls)
		if err != nil {
			return nil, err
		}
		r.failed += wrong
		r.attempted += len(p.ops)
		p.tls = nil
		passes = append(passes, p)
		if time.Since(begin)+time.Since(start) > o.budget() {
			break
		}
	}

	var setups, runs, opLat []float64
	var mem costDelta
	var work, wall time.Duration
	ops := 0
	lt := newLayerTimes()
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
		runs = append(runs, p.run.Seconds())
		opLat = append(opLat, p.ops.micros()...)
		mem.add(p.mem)
		ops += len(p.ops)
		work += p.run
		wall += p.setup + p.run
		lt.merge(p.layers)
	}
	r.set("setup_s", median(setups))
	r.set("run_ms", median(runs)*1000)
	r.perOp(mem, ops)
	r.note("constructions_per_s", float64(ops)/work.Seconds(), "1/s")
	r.note("op_p50_us", median(opLat), "us")
	r.note("run_s", median(runs), "s")
	r.note("alloc_mb", float64(mem.allocBytes)/float64(len(passes))/1e6, "MB")
	r.note("passes", float64(len(passes)), "count")
	r.note("op_samples", float64(len(opLat)), "count")

	if o.trace {
		// The layer timers run in both modes: a traced build pass does
		// exactly the untraced work.
		lt.report(r, len(passes))
		mem.gcN /= uint32(len(passes))
		mem.gcPause /= time.Duration(len(passes))
		r.setRuntime(mem)
		r.set("trace.coverage", lt.total().Seconds()/wall.Seconds())
		r.set("trace.overhead", 1)
	}
	return r, nil
}
