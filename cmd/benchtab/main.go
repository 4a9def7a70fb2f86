// Command benchtab prints the regenerated experiment tables (E1–E13)
// from the experiments registry, or an honest-run profile of a named
// scenario suite.
//
// Usage:
//
//	benchtab                 # all experiments, one worker per CPU
//	benchtab -run 'e2|e6'    # a subset by regexp over IDs
//	benchtab -parallel 4     # cap the worker pool
//	benchtab -json           # machine-readable tables (BENCH artifacts)
//	benchtab -suite smoke    # per-scenario honest-run stats for a suite
//
// Output is deterministic: tables appear in canonical experiment order
// and are byte-identical for any -parallel value; suite tables are a
// pure function of (suite, seed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/churn"
	"repro/internal/experiments"
	"repro/internal/faithful"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	pattern := fs.String("run", "", "regexp over experiment IDs (case-insensitive, whole-ID); empty = all")
	parallel := fs.Int("parallel", 0, "worker-pool size; 0 = one per CPU")
	asJSON := fs.Bool("json", false, "emit tables as JSON instead of aligned text")
	suite := fs.String("suite", "", "profile a named scenario suite (honest runs) instead of the experiment registry")
	seed := fs.Int64("seed", 1, "scenario-suite base seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *suite != "" {
		return runSuite(*suite, *seed, *asJSON, w)
	}
	exps, err := selectExperiments(*pattern)
	if err != nil {
		return err
	}
	tables, err := experiments.Runner{Workers: *parallel}.Run(exps)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tables)
	}
	for _, t := range tables {
		fmt.Fprintln(w, experiments.Render(t))
	}
	return nil
}

// runSuite prints one honest faithful-protocol run per scenario of a
// named suite as an experiments.Table: topology shape, workload size,
// and the construction-phase message/byte overhead. It is the quick
// profile of what a suite sweep will cost before committing to the
// full deviation search (faithcheck -suite).
func runSuite(name string, seed int64, asJSON bool, w io.Writer) error {
	s, ok := scenario.LookupSuite(name)
	if !ok {
		return fmt.Errorf("unknown suite %q (available: %v)", name, scenario.SuiteNames())
	}
	specs := s.Specs(seed)
	notGreenLit := 0
	t := &experiments.Table{
		ID:         "suite:" + s.Name,
		Title:      fmt.Sprintf("Scenario suite %q (seed %d): honest-run profile", s.Name, seed),
		PaperClaim: s.Description,
		Headers:    []string{"scenario", "n", "edges", "avg deg", "flows", "construction msgs", "construction bytes", "green-lit"},
	}
	for _, spec := range specs {
		p, err := profileSpec(spec)
		if err != nil {
			return err
		}
		if !p.completed {
			notGreenLit++
		}
		t.Rows = append(t.Rows, []string{
			spec.Describe(), fmt.Sprint(p.n), fmt.Sprint(p.edges),
			fmt.Sprintf("%.1f", float64(2*p.edges)/float64(p.n)),
			fmt.Sprint(p.flows),
			fmt.Sprint(p.construction.Sent), fmt.Sprint(p.construction.Bytes),
			fmt.Sprintf("%v", p.completed),
		})
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode([]*experiments.Table{t}); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(w, experiments.Render(t))
	}
	// An honest run (no deviator) must always be green-lit; a refusal
	// means the scenario itself is broken, so exit non-zero for CI.
	if notGreenLit > 0 {
		return fmt.Errorf("honest run not green-lit in %d/%d scenarios", notGreenLit, len(specs))
	}
	return nil
}

// profile is one suite row: topology shape (epoch 0 for dynamic
// scenarios), total flow count and construction overhead — summed
// across every epoch of a churn timeline, so the row prices the whole
// sweep, not just its first epoch.
type profile struct {
	n, edges     int
	flows        int
	construction sim.Counters
	completed    bool
}

// profileSpec drives the honest protocol for one spec: a single run
// for static specs, one run per epoch for dynamic ones (counters
// aggregated with sim.Counters.Add).
func profileSpec(spec scenario.Spec) (profile, error) {
	if !spec.Churn.Dynamic() {
		c, err := spec.Compile()
		if err != nil {
			return profile{}, err
		}
		res, err := faithful.Run(c.FaithfulConfig())
		if err != nil {
			return profile{}, fmt.Errorf("%s: %w", spec.Describe(), err)
		}
		return profile{
			n: c.Graph.N(), edges: c.Graph.M(),
			flows:        len(c.Params.Traffic),
			construction: res.Construction,
			completed:    res.Completed,
		}, nil
	}
	tl, err := churn.Build(spec)
	if err != nil {
		return profile{}, err
	}
	p := profile{
		n:     tl.Epochs[0].Compiled.Graph.N(),
		edges: tl.Epochs[0].Compiled.Graph.M(),
	}
	p.completed = true
	for _, e := range tl.Epochs {
		res, err := faithful.Run(e.Compiled.FaithfulConfig())
		if err != nil {
			return profile{}, fmt.Errorf("%s epoch %d: %w", spec.Describe(), e.Index+1, err)
		}
		if !res.Completed {
			p.completed = false
		}
		p.flows += len(e.Compiled.Params.Traffic)
		p.construction.Add(res.Construction)
	}
	return p, nil
}

// selectExperiments resolves the -run regexp against the registry,
// erroring on a pattern that matches nothing — before any experiment
// has spent cycles.
func selectExperiments(pattern string) ([]experiments.Experiment, error) {
	exps, err := experiments.Match(pattern)
	if err != nil {
		return nil, err
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("no experiment matched -run %q", pattern)
	}
	return exps, nil
}
