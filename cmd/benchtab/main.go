// Command benchtab prints the regenerated experiment tables (E1–E13)
// from the experiments registry.
//
// Usage:
//
//	benchtab                 # all experiments, GOMAXPROCS workers
//	benchtab -run 'e2|e6'    # a subset by regexp over IDs
//	benchtab -parallel 4     # cap the worker pool
//	benchtab -json           # machine-readable tables (BENCH artifacts)
//
// Output is deterministic: tables appear in canonical experiment order
// and are byte-identical for any -parallel value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
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
	parallel := fs.Int("parallel", 0, "worker-pool size; 0 = GOMAXPROCS")
	asJSON := fs.Bool("json", false, "emit tables as JSON instead of aligned text")
	if err := fs.Parse(args); err != nil {
		return err
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
