// Command perfbench is the repository benchmark. It runs one named
// workload against the reproduction's public packages, checks every
// output, and prints the workload's metrics by name with their units.
// The last line of standard output is a JSON verdict:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run reports the per-layer ones instead, timed from outside
// around calls into scenario, churn, fpss, rational, core and live.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload sweep -seed 1 -seconds 20 -trace 0
//	perfbench -workload all -seed 1 -seconds 5   # every workload, one table
//	perfbench -selftest                          # every workload briefly, both modes
//
// See README.md in this directory for the workloads, the metric
// definitions and which layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// budget is the run's measuring time.
func (o options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

type workload struct {
	name string
	run  func(options, io.Writer) (*result, error)
}

var workloads = []workload{
	{"sweep", runSweep},
	{"build", runBuild},
	{"serve-read", runServeRead},
	{"serve-churn", runServeChurn},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sweep, build, serve-read, serve-churn, or all")
	seed := fs.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	selftest := fs.Bool("selftest", false, "run every workload briefly in both modes and check its output against BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	switch {
	case *selftest:
		return selfTest(*seed, stdout)
	case *name == "all":
		return runAll(o, stdout)
	}
	w, ok := lookup(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want sweep, build, serve-read, serve-churn or all)", *name)
	}
	r, err := runOne(w, o, stdout)
	if err != nil {
		return err
	}
	line, err := verdictJSON(r, o.trace)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	return nil
}

// runOne runs a workload and prints its figures for people: the
// workload's own metric names, fail_ratio, then every declared metric
// of the requested mode.
func runOne(w workload, o options, out io.Writer) (*result, error) {
	r, err := w.run(o, out)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Fprintf(out, "== %s seed=%d seconds=%g trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	fmt.Fprintf(out, "  %-22s %14.4f ratio (%d of %d)\n", "fail_ratio", r.failRatio(), r.failed, r.attempted)
	for _, d := range declared(o.trace) {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", d.name, r.values[d.name], d.unit)
	}
	return r, nil
}

func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type verdict struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// verdictJSON renders the final line. A run is correct when nothing
// failed and every end-to-end metric is a positive finite number.
func verdictJSON(r *result, trace bool) (string, error) {
	v := verdict{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range declared(trace) {
		x, ok := r.values[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x, ok = 0, false
		}
		if !trace && (!ok || x <= 0) {
			v.Correct = false
		}
		v.Metrics[d.name] = jsonMetric{Value: x, Unit: d.unit}
	}
	b, err := json.Marshal(v)
	return string(b), err
}

// runAll runs every workload in turn and prints all of their metrics.
// The final line carries the summed counts and every workload's
// metrics under "<workload>.<metric>".
func runAll(o options, out io.Writer) error {
	v := verdict{Metrics: map[string]jsonMetric{}}
	for _, w := range workloads {
		r, err := runOne(w, o, out)
		if err != nil {
			return err
		}
		v.Attempted += r.attempted
		v.Failed += r.failed
		for _, d := range declared(o.trace) {
			v.Metrics[w.name+"."+d.name] = jsonMetric{Value: r.values[d.name], Unit: d.unit}
		}
	}
	v.Correct = v.Failed == 0
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []namedUnit `json:"workloads"`
	EndToEnd  []namedUnit `json:"end_to_end"`
	PerLayer  []namedUnit `json:"per_layer"`
}

// selfTest checks that BENCHMARK.json declares only workloads this
// program runs and exactly the metrics it reports, then runs every
// workload for one second in both modes and fails unless each run is
// correct.
func selfTest(seed int64, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selftest: %w (run from the repository root)", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("selftest: BENCHMARK.json: %w", err)
	}
	for _, w := range bf.Workloads {
		if _, ok := lookup(w.Name); !ok {
			return fmt.Errorf("selftest: BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	for _, mode := range []struct {
		file []namedUnit
		defs []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(mode.file) != len(mode.defs) {
			return fmt.Errorf("selftest: BENCHMARK.json declares %d metrics where the program reports %d", len(mode.file), len(mode.defs))
		}
		for i, m := range mode.file {
			if m.Name != mode.defs[i].name || m.Unit != mode.defs[i].unit {
				return fmt.Errorf("selftest: BENCHMARK.json metric %d is %s [%s], program reports %s [%s]",
					i, m.Name, m.Unit, mode.defs[i].name, mode.defs[i].unit)
			}
		}
	}
	var failures []error
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := runOne(w, options{seed: seed, seconds: 1, trace: trace}, out)
			if err != nil {
				failures = append(failures, err)
				continue
			}
			line, err := verdictJSON(r, trace)
			if err != nil {
				return err
			}
			var v verdict
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				return err
			}
			status := "ok"
			if !v.Correct {
				status = "FAIL"
				failures = append(failures, fmt.Errorf("%s trace=%v: not correct (%d of %d failed)", w.name, trace, v.Failed, v.Attempted))
			}
			fmt.Fprintf(out, "selftest %-12s trace=%-5v %s\n", w.name, trace, status)
		}
	}
	return errors.Join(failures...)
}
