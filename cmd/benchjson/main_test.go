package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/graph
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSSSP32-8   	     100	      1583 ns/op	       5 B/op	       0 allocs/op
BenchmarkAllPairs/n=64-8         	     100	    633407 ns/op	  302692 B/op	    4162 allocs/op
BenchmarkNoMem-8   	     200	      77.5 ns/op
BenchmarkMetric/w=8-8  	       2	 372085479 ns/op	        96.00 plays	403558104 B/op	 3977178 allocs/op
PASS
ok  	repro/internal/graph	0.398s
`

func TestParse(t *testing.T) {
	res, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("parsed %d results, want 4", len(res))
	}
	if res[0].Name != "BenchmarkSSSP32" || res[0].AllocsOp != 0 || res[0].BytesOp != 5 {
		t.Errorf("first result = %+v", res[0])
	}
	if res[1].Name != "BenchmarkAllPairs/n=64" || res[1].NsPerOp != 633407 || res[1].AllocsOp != 4162 {
		t.Errorf("second result = %+v", res[1])
	}
	if res[2].Name != "BenchmarkNoMem" || res[2].NsPerOp != 77.5 {
		t.Errorf("third result = %+v", res[2])
	}
	// Custom b.ReportMetric columns (here "plays") must not hide the
	// B/op and allocs/op that follow them.
	if res[3].Name != "BenchmarkMetric/w=8" || res[3].BytesOp != 403558104 || res[3].AllocsOp != 3977178 {
		t.Errorf("fourth result = %+v", res[3])
	}
}

func TestRunJSONRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := run("", "", false, nil, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var list []Result
	if err := json.Unmarshal(out.Bytes(), &list); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(list) != 4 || list[1].Iters != 100 {
		t.Fatalf("round trip lost data: %+v", list)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	oldJSON := `[{"name":"BenchmarkA","iters":10,"ns_per_op":1000,"allocs_per_op":50},
	             {"name":"BenchmarkGone","iters":10,"ns_per_op":5}]`
	newJSON := `[{"name":"BenchmarkA","iters":10,"ns_per_op":500,"allocs_per_op":5},
	             {"name":"BenchmarkNew","iters":10,"ns_per_op":7}]`
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(oldPath, "", false, []string{newPath}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"-50.0%", "-45", "gone", "BenchmarkNew"} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing %q:\n%s", want, got)
		}
	}
}

func TestCompareArgValidation(t *testing.T) {
	if err := run("old.json", "", false, nil, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error without positional new.json")
	}
	// An unknown ladder fails before any go test runs.
	err := run("", "nosuch", false, nil, nil, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "want all or one of graph, faithful") {
		t.Fatalf("unknown ladder: %v", err)
	}
}

// writeJSON writes a bench JSON file under the test's temp dir.
func writeJSON(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpeedup: the speedup summary pairs sim rows with their central
// counterparts and prints both ratios; an unmatched pattern errors.
func TestSpeedup(t *testing.T) {
	path := writeJSON(t, `[
	  {"name":"BenchmarkChurnScale/boundary/n=32/sim","iters":1,"ns_per_op":9000000,"allocs_per_op":3000000},
	  {"name":"BenchmarkChurnScale/boundary/n=32/central","iters":1,"ns_per_op":50000,"allocs_per_op":60000},
	  {"name":"BenchmarkOther","iters":1,"ns_per_op":5}]`)
	m, order, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := speedup(&out, m, order, regexp.MustCompile("ChurnScale/boundary")); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"boundary/n=32: central 180.0x faster", "50.0x fewer allocs"} {
		if !strings.Contains(got, want) {
			t.Errorf("speedup output missing %q:\n%s", want, got)
		}
	}
	// A pattern matching no pair must fail loudly, not print nothing.
	if err := speedup(&bytes.Buffer{}, m, order, regexp.MustCompile("NoSuchLadder")); err == nil {
		t.Fatal("expected error for a pattern with no sim/central pairs")
	}
}

// TestWLadder: -wladder groups /w=<k> rows and reports speedup and
// efficiency against the w=1 rung.
func TestWLadder(t *testing.T) {
	dir := t.TempDir()
	benchJSON := `[
	  {"name":"BenchmarkCheck/plain/w=1","iters":1,"ns_per_op":8000},
	  {"name":"BenchmarkCheck/plain/w=4","iters":1,"ns_per_op":2500},
	  {"name":"BenchmarkCheck/plain/w=8","iters":1,"ns_per_op":2000},
	  {"name":"BenchmarkNoSuffix","iters":1,"ns_per_op":5}]`
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, []byte(benchJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run("", "", true, []string{path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"BenchmarkCheck/plain:", "w=1", "3.20x", " 80%", "4.00x", " 50%"} {
		if !strings.Contains(got, want) {
			t.Errorf("wladder output missing %q:\n%s", want, got)
		}
	}
	// A file with no /w= rows must fail loudly.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`[{"name":"BenchmarkX","iters":1,"ns_per_op":5}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", true, []string{empty}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error for a file with no worker ladder")
	}
	// Modes are mutually exclusive.
	if err := run("old.json", "", true, []string{path}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error combining -compare and -wladder")
	}
}

// TestGate pins each rule of the ladder gate on small baselines and
// runs: the allocs gate on gated rows only, exact counts on every row
// except timing units, and rows present on both sides.
func TestGate(t *testing.T) {
	l := ladder{name: "t", gate: "Gated", timing: []string{"ns/req"}}
	for _, tc := range []struct {
		name      string
		base, run string
		want      string // the one failure; "" passes
	}{
		{"gated allocs +10.0%",
			`{"name":"BenchmarkGated","allocs_per_op":1000}`, `{"name":"BenchmarkGated","allocs_per_op":1100}`, ""},
		{"gated allocs +10.1%",
			`{"name":"BenchmarkGated","allocs_per_op":1000}`, `{"name":"BenchmarkGated","allocs_per_op":1101}`,
			"t: BenchmarkGated: allocs/op 1000 -> 1101 (+10.1%): a gated row may rise at most 10%"},
		{"ungated allocs +10.1%",
			`{"name":"BenchmarkFree","allocs_per_op":1000}`, `{"name":"BenchmarkFree","allocs_per_op":1101}`, ""},
		{"plays changed on an ungated row",
			`{"name":"BenchmarkFree","metrics":{"plays":96}}`, `{"name":"BenchmarkFree","metrics":{"plays":95}}`,
			"t: BenchmarkFree: plays 96 -> 95: a count must not change"},
		{"count gone",
			`{"name":"BenchmarkFree","metrics":{"plays":96}}`, `{"name":"BenchmarkFree"}`,
			"t: BenchmarkFree: plays 96 -> none: a count must not change"},
		{"timing unit changed",
			`{"name":"BenchmarkGated","metrics":{"ns/req":187.3}}`, `{"name":"BenchmarkGated","metrics":{"ns/req":655.3}}`, ""},
		{"gated row missing from the run",
			`{"name":"BenchmarkGated"},{"name":"BenchmarkFree"}`, `{"name":"BenchmarkFree"}`,
			"t: BenchmarkGated: in the baseline, missing from the run"},
		{"run row with no baseline",
			`{"name":"BenchmarkFree"}`, `{"name":"BenchmarkFree"},{"name":"BenchmarkNew"}`,
			"t: BenchmarkNew: in the run, with no baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := writeJSON(t, "["+tc.base+"]")
			run := writeJSON(t, "["+tc.run+"]")
			failures := l.check(base, run, &bytes.Buffer{})
			switch {
			case tc.want == "" && len(failures) != 0:
				t.Fatalf("want a pass, got %q", failures)
			case tc.want != "" && (len(failures) != 1 || failures[0] != tc.want):
				t.Fatalf("want the one failure %q, got %q", tc.want, failures)
			}
		})
	}
}

// TestLaddersMatchBaselines pins the ladders table against the
// committed baselines: one ladder per BENCH_*.baseline.json, every
// baseline row run by its ladder's bench regexp, each alternative of
// each gate regexp selecting some row, and the allocs gate covering
// exactly the rows the compare steps gated before the table.
func TestLaddersMatchBaselines(t *testing.T) {
	// Each ladder's -gate-match before the table; "" where its compare
	// gated every row.
	gatedBefore := map[string]string{
		"graph":    `BenchmarkComputeCentral/|BenchmarkExecute/`,
		"faithful": `BenchmarkCheckFaithfulness/|BenchmarkFaithfulRunHonest|BenchmarkDistributedConvergence/`,
		"scenario": ``,
		"churn":    `BenchmarkChurn/|BenchmarkChurnScale/boundary/.*/central`,
		"loss":     ``,
		"settle":   ``,
		"live":     ``,
	}
	committed, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range committed {
		names = append(names, strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".baseline.json"))
	}
	var table []string
	for _, l := range ladders {
		table = append(table, l.name)
	}
	slices.Sort(table)
	if !slices.Equal(names, table) {
		t.Fatalf("committed baselines %v, ladders %v", names, table)
	}
	for _, l := range ladders {
		before, ok := gatedBefore[l.name]
		if !ok {
			t.Errorf("%s: no gate from before the table", l.name)
		}
		rows, order, err := load(filepath.Join("..", "..", "BENCH_"+l.name+".baseline.json"))
		if err != nil {
			t.Fatal(err)
		}
		bench, gate, old := regexp.MustCompile(l.bench), regexp.MustCompile(l.gate), regexp.MustCompile(before)
		for _, row := range order {
			if !bench.MatchString(row) {
				t.Errorf("%s: baseline row %s does not match -bench %q", l.name, row, l.bench)
			}
			if gate.MatchString(row) != old.MatchString(row) {
				t.Errorf("%s: %s gated=%v by %q, %v before", l.name, row, gate.MatchString(row), l.gate, old.MatchString(row))
			}
		}
		for _, alt := range strings.Split(l.gate, "|") {
			re := regexp.MustCompile(alt)
			if !slices.ContainsFunc(order, re.MatchString) {
				t.Errorf("%s: gate alternative %q selects no baseline row", l.name, alt)
			}
		}
		if l.speedup != "" {
			if err := speedup(&bytes.Buffer{}, rows, order, regexp.MustCompile(l.speedup)); err != nil {
				t.Errorf("%s: %v", l.name, err)
			}
		}
	}
}

// TestParseMetrics: custom b.ReportMetric units land in the Metrics
// map keyed by unit — the latency-percentile rows of the live ladder.
func TestParseMetrics(t *testing.T) {
	line := "BenchmarkLive/n=8/rate=2000-8  1  251000000 ns/op  52341 p50-ns  310882 p99-ns  1991 req/s  12 B/op  3 allocs/op\n"
	res, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("parsed %d results, want 1", len(res))
	}
	r := res[0]
	if r.BytesOp != 12 || r.AllocsOp != 3 {
		t.Fatalf("standard metrics lost around custom ones: %+v", r)
	}
	for unit, want := range map[string]float64{"p50-ns": 52341, "p99-ns": 310882, "req/s": 1991} {
		if got := r.Metrics[unit]; got != want {
			t.Errorf("Metrics[%q] = %v, want %v", unit, got, want)
		}
	}
}

// TestCompareMetrics: compare renders one indented sub-row per custom
// metric with its delta.
func TestCompareMetrics(t *testing.T) {
	dir := t.TempDir()
	oldJSON := `[{"name":"BenchmarkLive/n=8","iters":1,"ns_per_op":1000,"metrics":{"p50-ns":100,"p99-ns":400}}]`
	newJSON := `[{"name":"BenchmarkLive/n=8","iters":1,"ns_per_op":1000,"metrics":{"p50-ns":110,"req/s":2000}}]`
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(oldPath, "", false, []string{newPath}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"p50-ns", "+10.0%", "p99-ns", "gone", "req/s", "new"} {
		if !strings.Contains(got, want) {
			t.Errorf("metric compare missing %q:\n%s", want, got)
		}
	}
}
