// Command benchjson converts `go test -bench` text output into a
// stable JSON array, and compares two such JSON files benchstat-style.
// It backs the CI bench-compare step that publishes BENCH_graph.json:
//
//	go test -bench . -benchmem -run '^$' ./internal/graph | benchjson > BENCH_graph.json
//	benchjson -compare BENCH_graph.baseline.json BENCH_graph.json
//
// Compare prints one row per benchmark present in both files with the
// time and allocation deltas. Timing drift is surfaced, never gated —
// CI runners are too noisy. Allocation counts are deterministic on a
// fixed workload, so those CAN gate: with -gate-allocs, compare exits
// non-zero when any benchmark's allocs/op regresses past the given
// percentage (optionally restricted to names matching -gate-match):
//
//	benchjson -gate-allocs 10 -gate-match 'plain/w=1' -compare old.json new.json
//
// Two more report modes read a single JSON file. -speedup pairs every
// row ending in "/sim" (restricted by the given regexp) with its
// "/central" counterpart and prints the time and allocation ratios —
// the CI summary line for the central-vs-sim boundary ladder. -wladder
// groups rows carrying a /w=<k> suffix and prints the worker-scaling
// table (speedup and efficiency vs the w=1 row):
//
//	benchjson -speedup 'ChurnScale/boundary' BENCH_churn.json
//	benchjson -wladder BENCH_faithful.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name     string  `json:"name"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BytesOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds the custom b.ReportMetric units a benchmark
	// published besides the standard three — latency percentiles
	// ("p50-ns", "p99-ns") and throughput ("req/s") for the live
	// serving ladder. Keyed by unit exactly as printed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches the fixed prefix of a benchmark result line, e.g.
//
//	BenchmarkAllPairs/n=64-8   100   633407 ns/op   302692 B/op   4162 allocs/op
//
// Everything after ns/op is a sequence of "<value> <unit>" pairs —
// B/op, allocs/op, and any custom b.ReportMetric units (e.g. "plays",
// "deliveries/op") — parsed by unit so metric order never matters.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// gate configures the allocation-regression check in compare mode.
type gate struct {
	// allocsPct fails the compare when allocs/op regresses by more
	// than this percentage; <= 0 disables the gate.
	allocsPct float64
	// match restricts the gate to benchmark names it matches; nil
	// gates every benchmark present in both files.
	match *regexp.Regexp
}

func main() {
	compare := flag.String("compare", "", "old.json to diff against; requires new.json as the positional arg")
	gateAllocs := flag.Float64("gate-allocs", 0, "with -compare: fail when allocs/op regresses more than this percent (0 = report only)")
	gateMatch := flag.String("gate-match", "", "with -gate-allocs: regexp restricting which benchmarks are gated")
	speedup := flag.String("speedup", "", "print sim-vs-central ratios for rows matching this regexp in the positional bench.json")
	wladder := flag.Bool("wladder", false, "print the worker-scaling ladder for /w=<k> rows in the positional bench.json")
	flag.Parse()
	g := gate{allocsPct: *gateAllocs}
	if *gateMatch != "" {
		re, err := regexp.Compile(*gateMatch)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -gate-match:", err)
			os.Exit(1)
		}
		g.match = re
	}
	if err := run(*compare, g, *speedup, *wladder, flag.Args(), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(compare string, g gate, speedup string, wladder bool, args []string, in io.Reader, out io.Writer) error {
	modes := 0
	for _, on := range []bool{compare != "", speedup != "", wladder} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-compare, -speedup and -wladder are mutually exclusive")
	}
	if compare != "" {
		if len(args) != 1 {
			return fmt.Errorf("-compare needs exactly one positional new.json, got %d args", len(args))
		}
		return runCompare(compare, args[0], g, out)
	}
	if speedup != "" {
		re, err := regexp.Compile(speedup)
		if err != nil {
			return fmt.Errorf("-speedup: %w", err)
		}
		if len(args) != 1 {
			return fmt.Errorf("-speedup needs exactly one positional bench.json, got %d args", len(args))
		}
		return runSpeedup(args[0], re, out)
	}
	if wladder {
		if len(args) != 1 {
			return fmt.Errorf("-wladder needs exactly one positional bench.json, got %d args", len(args))
		}
		return runWLadder(args[0], out)
	}
	results, err := parse(in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// parse extracts benchmark lines from `go test -bench` output,
// stripping the -cpu suffix (`-8`) so names are machine-independent.
func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		res := Result{Name: name, Iters: iters, NsPerOp: ns}
		rest := strings.Fields(m[4])
		for i := 0; i+1 < len(rest); i += 2 {
			switch rest[i+1] {
			case "B/op":
				res.BytesOp, _ = strconv.ParseInt(rest[i], 10, 64)
			case "allocs/op":
				res.AllocsOp, _ = strconv.ParseInt(rest[i], 10, 64)
			default:
				v, err := strconv.ParseFloat(rest[i], 64)
				if err != nil {
					continue
				}
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[rest[i+1]] = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

func load(path string) (map[string]Result, []string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var list []Result
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]Result, len(list))
	order := make([]string, 0, len(list))
	for _, r := range list {
		if _, dup := m[r.Name]; !dup {
			order = append(order, r.Name)
		}
		m[r.Name] = r
	}
	return m, order, nil
}

// runSpeedup pairs every "/sim" row matching re with its "/central"
// counterpart and prints the improvement ratios. No matching pair is
// an error: a summary line silently reporting nothing would hide a
// renamed benchmark from the CI lane that publishes it.
func runSpeedup(path string, re *regexp.Regexp, out io.Writer) error {
	m, order, err := load(path)
	if err != nil {
		return err
	}
	pairs := 0
	for _, name := range order {
		base, ok := strings.CutSuffix(name, "/sim")
		if !ok || !re.MatchString(name) {
			continue
		}
		counterpart := base + "/central"
		d, ok := m[counterpart]
		if !ok {
			continue
		}
		s := m[name]
		if d.NsPerOp <= 0 {
			return fmt.Errorf("%s: non-positive ns/op", counterpart)
		}
		line := fmt.Sprintf("%s: central %.1fx faster (%.0f -> %.0f ns/op)",
			base, s.NsPerOp/d.NsPerOp, s.NsPerOp, d.NsPerOp)
		if s.AllocsOp > 0 && d.AllocsOp > 0 {
			line += fmt.Sprintf(", %.1fx fewer allocs (%d -> %d allocs/op)",
				float64(s.AllocsOp)/float64(d.AllocsOp), s.AllocsOp, d.AllocsOp)
		}
		fmt.Fprintln(out, line)
		pairs++
	}
	if pairs == 0 {
		return fmt.Errorf("no sim/central pairs match %q in %s", re, path)
	}
	return nil
}

// wRow captures one /w=<k> suffix row of a worker ladder.
var wRow = regexp.MustCompile(`^(.+)/w=(\d+)$`)

// runWLadder groups rows by their name prefix before a /w=<k> suffix
// and prints each group's scaling table: ns/op, speedup over the w=1
// row and parallel efficiency (speedup/k). This is the nightly check
// that the search pool actually scales on a multi-core runner.
func runWLadder(path string, out io.Writer) error {
	m, order, err := load(path)
	if err != nil {
		return err
	}
	type rung struct {
		w  int
		ns float64
	}
	groups := map[string][]rung{}
	var groupOrder []string
	for _, name := range order {
		g := wRow.FindStringSubmatch(name)
		if g == nil {
			continue
		}
		w, _ := strconv.Atoi(g[2])
		if _, seen := groups[g[1]]; !seen {
			groupOrder = append(groupOrder, g[1])
		}
		groups[g[1]] = append(groups[g[1]], rung{w, m[name].NsPerOp})
	}
	if len(groupOrder) == 0 {
		return fmt.Errorf("no /w=<k> rows in %s", path)
	}
	w := bufio.NewWriter(out)
	for _, name := range groupOrder {
		rungs := groups[name]
		sort.Slice(rungs, func(i, j int) bool { return rungs[i].w < rungs[j].w })
		base := rungs[0].ns // w=1 first after sorting whenever present
		fmt.Fprintf(w, "%s:\n", name)
		for _, r := range rungs {
			speed := base / r.ns
			fmt.Fprintf(w, "  w=%-3d %14.0f ns/op   speedup %5.2fx   efficiency %3.0f%%\n",
				r.w, r.ns, speed, 100*speed*float64(rungs[0].w)/float64(r.w))
		}
	}
	return w.Flush()
}

// metricUnits returns the sorted union of both results' custom metric
// units.
func metricUnits(a, b Result) []string {
	if len(a.Metrics) == 0 && len(b.Metrics) == 0 {
		return nil
	}
	set := map[string]struct{}{}
	for u := range a.Metrics {
		set[u] = struct{}{}
	}
	for u := range b.Metrics {
		set[u] = struct{}{}
	}
	units := make([]string, 0, len(set))
	for u := range set {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}

func runCompare(oldPath, newPath string, g gate, out io.Writer) error {
	oldM, order, err := load(oldPath)
	if err != nil {
		return err
	}
	newM, _, err := load(newPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "%-40s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs Δ")
	var regressions []string
	for _, name := range order {
		o := oldM[name]
		n, ok := newM[name]
		if !ok {
			fmt.Fprintf(w, "%-40s %14.0f %14s %8s %10s\n", name, o.NsPerOp, "gone", "", "")
			continue
		}
		delta := "~"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(n.NsPerOp-o.NsPerOp)/o.NsPerOp)
		}
		allocs := fmt.Sprintf("%+d", n.AllocsOp-o.AllocsOp)
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %8s %10s\n", name, o.NsPerOp, n.NsPerOp, delta, allocs)
		// Custom metrics (latency percentiles, throughput) get one
		// indented sub-row per unit present on either side.
		for _, unit := range metricUnits(o, n) {
			ov, oOK := o.Metrics[unit]
			nv, nOK := n.Metrics[unit]
			switch {
			case oOK && nOK:
				md := "~"
				if ov > 0 {
					md = fmt.Sprintf("%+.1f%%", 100*(nv-ov)/ov)
				}
				fmt.Fprintf(w, "%-40s %14.0f %14.0f %8s\n", "  └ "+unit, ov, nv, md)
			case nOK:
				fmt.Fprintf(w, "%-40s %14s %14.0f %8s\n", "  └ "+unit, "new", nv, "")
			default:
				fmt.Fprintf(w, "%-40s %14.0f %14s %8s\n", "  └ "+unit, ov, "gone", "")
			}
		}
		if g.allocsPct > 0 && o.AllocsOp > 0 && (g.match == nil || g.match.MatchString(name)) {
			pct := 100 * float64(n.AllocsOp-o.AllocsOp) / float64(o.AllocsOp)
			if pct > g.allocsPct {
				regressions = append(regressions,
					fmt.Sprintf("%s: %d -> %d allocs/op (%+.1f%% > %+.1f%%)", name, o.AllocsOp, n.AllocsOp, pct, g.allocsPct))
			}
		}
	}
	var added []string
	for name := range newM {
		if _, ok := oldM[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(w, "%-40s %14s %14.0f %8s %10s\n", name, "new", newM[name].NsPerOp, "", "")
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if len(regressions) > 0 {
		return fmt.Errorf("allocation regression past %.0f%%:\n  %s", g.allocsPct, strings.Join(regressions, "\n  "))
	}
	return nil
}
