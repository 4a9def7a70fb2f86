// Command benchjson runs the repository's bench ladders and gates each
// against its committed baseline. A ladder is one entry of the ladders
// table below: the packages, bench regexp and benchtime `go test` runs,
// and the rows whose allocs/op gate. CI and a developer run the same
// command, from the module root:
//
//	go run ./cmd/benchjson -ladder all
//	go run ./cmd/benchjson -ladder settle
//
// For each ladder it runs `go test -cpu 1 -run '^$' -benchmem`, writes
// BENCH_<name>.json and prints its delta table against
// BENCH_<name>.baseline.json. Once every named ladder has run, it
// fails if a `go test` failed or a run breaks a rule of the gate:
//
//   - a gated row's allocs/op rose more than 10%;
//   - a custom metric differs on any row. Every custom unit counts
//     something (plays, messages, drops), and a changed count is a
//     change of behaviour, except the timing units a ladder names;
//   - a row is in the baseline and not in the run, or the reverse.
//
// Timing is reported, never gated: runners are too noisy. Re-recording
// a baseline is copying the run over it:
//
//	cp BENCH_settle.json BENCH_settle.baseline.json
//
// Without -ladder, benchjson converts `go test -bench` text output on
// stdin into the same JSON array; -compare prints the delta table of
// two such files, and -wladder the worker-scaling table of the /w=<k>
// rows of one (the nightly multi-core check):
//
//	go test -bench 'BenchmarkCheckFaithfulness/' -benchmem -run '^$' ./internal/rational | benchjson > new.json
//	benchjson -compare BENCH_faithful.baseline.json new.json
//	benchjson -wladder new.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"slices"
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
	// published besides the standard three — counts such as "plays"
	// and timings such as "ns/req". Keyed by unit exactly as printed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ladder is one per-push bench ladder.
type ladder struct {
	name      string   // writes BENCH_<name>.json, gates against BENCH_<name>.baseline.json
	pkgs      []string // go test packages, relative to the module root
	bench     string   // go test -bench
	benchtime string   // go test -benchtime
	// gate selects by name the rows whose allocs/op may rise at most
	// allocsGatePct; the empty regexp selects every row.
	gate string
	// timing lists the custom units that are times, not counts.
	timing []string
	// speedup selects the "/sim" rows whose ratio to their "/central"
	// counterparts is printed after the delta table; empty prints none.
	speedup string
}

// allocsGatePct is how far a gated row's allocs/op may rise.
const allocsGatePct = 10

// ladders is every per-push ladder, in the order "-ladder all" runs
// them. Each runs at one CPU, where its baseline was recorded: a
// worker pool's allocs/op move with GOMAXPROCS.
var ladders = []ladder{
	{
		// The routing/pricing core: the ComputeCentral and all-pairs
		// Execute size ladders.
		name: "graph", pkgs: []string{"./internal/fpss"},
		bench: `BenchmarkComputeCentral/|BenchmarkExecute/`, benchtime: "5x",
	},
	{
		// The E6 deviation search over worker counts, the sim event
		// loop, and the fpss.Run convergence a live server pays on
		// every epoch advance. The sim microbenchmarks are ungated.
		name: "faithful", pkgs: []string{"./internal/rational", "./internal/sim", "./internal/fpss"},
		bench:     `BenchmarkCheckFaithfulness/|BenchmarkFaithfulRunHonest|BenchmarkTokenChain|BenchmarkAllToAllBroadcast|BenchmarkEventLoopSteadyState|BenchmarkDistributedConvergence/`,
		benchtime: "2x",
		gate:      `BenchmarkCheckFaithfulness/|BenchmarkFaithfulRunHonest|BenchmarkDistributedConvergence/`,
	},
	{
		// Honest runs of the small built-in suites, and the two-sided
		// search on one scenario per Internet-like family: the unit of
		// work `faithcheck -suite` scales by.
		name: "scenario", pkgs: []string{"."},
		bench: `BenchmarkSuite`, benchtime: "2x",
	},
	{
		// The per-epoch search over epochs × n × workers, the timeline
		// build, and an epoch boundary seeded by one central solve
		// against one built by protocol simulations. The sim rows are
		// ungated: they run the faithful protocol, so they move
		// whenever it does. Five iterations a row, because at one a GC
		// cycle landing in a row swung its ns/op by half.
		name: "churn", pkgs: []string{"./internal/churn"},
		bench:     `BenchmarkChurn/|BenchmarkChurnScale/boundary/|BenchmarkTimelineBuild`,
		benchtime: "5x",
		gate:      `BenchmarkChurn/|BenchmarkChurnScale/boundary/.*/central`,
		speedup:   `BenchmarkChurnScale/boundary`,
	},
	{
		// Honest runs over seeded drop rates, and the two-sided search
		// on one lossy scenario.
		name: "loss", pkgs: []string{"."},
		bench: `BenchmarkLoss`, benchtime: "2x",
	},
	{
		// Sharded 2PC settlement over shards × crash plans. A row takes
		// well under a millisecond, so 100 iterations keep one GC cycle
		// from swinging its ns/op.
		name: "settle", pkgs: []string{"./internal/settle"},
		bench: `BenchmarkSettle`, benchtime: "100x",
	},
	{
		// Closed-loop Server.Dispatch over every flow of a resident n=16
		// server, and the same flows through the frame codec alone.
		name: "live", pkgs: []string{"./internal/live"},
		bench: `BenchmarkDispatch|BenchmarkWire`, benchtime: "1000x",
		timing: []string{"ns/req"},
	},
}

// benchLine matches the fixed prefix of a benchmark result line, e.g.
//
//	BenchmarkAllPairs/n=64-8   100   633407 ns/op   302692 B/op   4162 allocs/op
//
// Everything after ns/op is a sequence of "<value> <unit>" pairs —
// B/op, allocs/op, and any custom b.ReportMetric units (e.g. "plays",
// "deliveries/op") — parsed by unit so metric order never matters.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func main() {
	compare := flag.String("compare", "", "old.json to diff against; requires new.json as the positional arg")
	ladderName := flag.String("ladder", "", `run this bench ladder, or "all", and gate it against its committed baseline`)
	wladder := flag.Bool("wladder", false, "print the worker-scaling ladder for /w=<k> rows in the positional bench.json")
	flag.Parse()
	if err := run(*compare, *ladderName, *wladder, flag.Args(), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(compare, ladderName string, wladder bool, args []string, in io.Reader, out io.Writer) error {
	modes := 0
	for _, on := range []bool{compare != "", ladderName != "", wladder} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-compare, -ladder and -wladder are mutually exclusive")
	}
	switch {
	case compare != "":
		if len(args) != 1 {
			return fmt.Errorf("-compare needs exactly one positional new.json, got %d args", len(args))
		}
		return runCompare(compare, args[0], out)
	case ladderName != "":
		if len(args) != 0 {
			return fmt.Errorf("-ladder takes no positional args, got %d", len(args))
		}
		return runLadders(ladderName, out)
	case wladder:
		if len(args) != 1 {
			return fmt.Errorf("-wladder needs exactly one positional bench.json, got %d args", len(args))
		}
		return runWLadder(args[0], out)
	}
	results, err := parse(in)
	if err != nil {
		return err
	}
	return encode(out, results)
}

// encode writes results as the indented JSON array every BENCH_*.json
// holds, so a run copied over its baseline diffs line by line.
func encode(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
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

// runLadders runs the named ladder, or every ladder for "all", and
// reports every failure once all of them have run.
func runLadders(name string, out io.Writer) error {
	todo := ladders
	if name != "all" {
		i := slices.IndexFunc(ladders, func(l ladder) bool { return l.name == name })
		if i < 0 {
			var names []string
			for _, l := range ladders {
				names = append(names, l.name)
			}
			return fmt.Errorf("-ladder %q: want all or one of %s", name, strings.Join(names, ", "))
		}
		todo = ladders[i : i+1]
	}
	var failures []string
	for _, l := range todo {
		failures = append(failures, l.run(out)...)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d gate failures:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// run runs the ladder's benchmarks, writes BENCH_<name>.json and gates
// it against the baseline (see check). A benchmark that fails prints
// its log to standard error.
func (l ladder) run(out io.Writer) []string {
	args := append([]string{"test", "-cpu", "1", "-run", "^$", "-benchmem",
		"-bench", l.bench, "-benchtime", l.benchtime}, l.pkgs...)
	fmt.Fprintf(out, "== %s: go %s\n", l.name, strings.Join(args, " "))
	var stdout bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	var failures []string
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(stdout.Bytes())
		failures = append(failures, fmt.Sprintf("%s: go test: %v", l.name, err))
	}
	results, err := parse(&stdout)
	if err != nil {
		return append(failures, fmt.Sprintf("%s: %v", l.name, err))
	}
	var js bytes.Buffer
	if err := encode(&js, results); err != nil {
		return append(failures, fmt.Sprintf("%s: %v", l.name, err))
	}
	path := "BENCH_" + l.name + ".json"
	if err := os.WriteFile(path, js.Bytes(), 0o644); err != nil {
		return append(failures, fmt.Sprintf("%s: %v", l.name, err))
	}
	return append(failures, l.check("BENCH_"+l.name+".baseline.json", path, out)...)
}

// check prints the delta table of the run at runPath against the
// baseline at basePath, then the speedup summary if the ladder has
// one, and returns each rule of the gate the run breaks, naming the
// row and the rule.
func (l ladder) check(basePath, runPath string, out io.Writer) []string {
	base, order, err := load(basePath)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", l.name, err)}
	}
	cur, curOrder, err := load(runPath)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", l.name, err)}
	}
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, l.name+": "+fmt.Sprintf(format, args...))
	}
	if err := printTable(out, base, cur, order); err != nil {
		fail("%v", err)
	}
	if l.speedup != "" {
		if err := speedup(out, cur, curOrder, regexp.MustCompile(l.speedup)); err != nil {
			fail("%v", err)
		}
	}
	gate := regexp.MustCompile(l.gate)
	for _, name := range order {
		o := base[name]
		n, ok := cur[name]
		if !ok {
			fail("%s: in the baseline, missing from the run", name)
			continue
		}
		if gate.MatchString(name) && 100*(n.AllocsOp-o.AllocsOp) > allocsGatePct*o.AllocsOp {
			fail("%s: allocs/op %d -> %d (%+.1f%%): a gated row may rise at most %d%%",
				name, o.AllocsOp, n.AllocsOp, 100*float64(n.AllocsOp-o.AllocsOp)/float64(o.AllocsOp), allocsGatePct)
		}
		for _, unit := range metricUnits(o, n) {
			ov, oOK := o.Metrics[unit]
			nv, nOK := n.Metrics[unit]
			if (ov != nv || oOK != nOK) && !slices.Contains(l.timing, unit) {
				fail("%s: %s %s -> %s: a count must not change", name, unit, formatCount(ov, oOK), formatCount(nv, nOK))
			}
		}
	}
	for _, name := range added(base, cur) {
		fail("%s: in the run, with no baseline", name)
	}
	return failures
}

// formatCount formats one side of a count comparison.
func formatCount(v float64, ok bool) string {
	if !ok {
		return "none"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// added returns, sorted, the names cur has and base lacks.
func added(base, cur map[string]Result) []string {
	var names []string
	for name := range cur {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// speedup pairs every "/sim" row matching re with its "/central"
// counterpart and prints the improvement ratios. No matching pair is
// an error: a summary line silently reporting nothing would hide a
// renamed benchmark.
func speedup(out io.Writer, m map[string]Result, order []string, re *regexp.Regexp) error {
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
		return fmt.Errorf("no sim/central pairs match %q", re)
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

func runCompare(oldPath, newPath string, out io.Writer) error {
	oldM, order, err := load(oldPath)
	if err != nil {
		return err
	}
	newM, _, err := load(newPath)
	if err != nil {
		return err
	}
	return printTable(out, oldM, newM, order)
}

// printTable prints one row per benchmark of oldM, in order, with the
// time and allocation deltas and one sub-row per custom metric, then
// the rows only newM has.
func printTable(out io.Writer, oldM, newM map[string]Result, order []string) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "%-40s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs Δ")
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
	}
	for _, name := range added(oldM, newM) {
		fmt.Fprintf(w, "%-40s %14s %14.0f %8s %10s\n", name, "new", newM[name].NsPerOp, "", "")
	}
	return w.Flush()
}
