package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
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
	if err := run("", gate{}, "", false, nil, strings.NewReader(sample), &out); err != nil {
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
	if err := run(oldPath, gate{}, "", false, []string{newPath}, nil, &out); err != nil {
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
	if err := run("old.json", gate{}, "", false, nil, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error without positional new.json")
	}
}

// TestSpeedup: -speedup pairs sim rows with their central
// counterparts and prints both ratios; an unmatched pattern errors.
func TestSpeedup(t *testing.T) {
	dir := t.TempDir()
	benchJSON := `[
	  {"name":"BenchmarkChurnScale/boundary/n=32/sim","iters":1,"ns_per_op":9000000,"allocs_per_op":3000000},
	  {"name":"BenchmarkChurnScale/boundary/n=32/central","iters":1,"ns_per_op":50000,"allocs_per_op":60000},
	  {"name":"BenchmarkOther","iters":1,"ns_per_op":5}]`
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, []byte(benchJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run("", gate{}, "ChurnScale/boundary", false, []string{path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"boundary/n=32: central 180.0x faster", "50.0x fewer allocs"} {
		if !strings.Contains(got, want) {
			t.Errorf("speedup output missing %q:\n%s", want, got)
		}
	}
	// A pattern matching no pair must fail loudly, not print nothing.
	if err := run("", gate{}, "NoSuchLadder", false, []string{path}, nil, &bytes.Buffer{}); err == nil {
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
	if err := run("", gate{}, "", true, []string{path}, nil, &out); err != nil {
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
	if err := run("", gate{}, "", true, []string{empty}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error for a file with no worker ladder")
	}
	// Modes are mutually exclusive.
	if err := run("old.json", gate{}, "x", false, []string{path}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error combining -compare and -speedup")
	}
}

// TestGateAllocs: the compare gate fails on an allocs/op regression
// past the threshold, honours -gate-match, and stays quiet within it.
func TestGateAllocs(t *testing.T) {
	dir := t.TempDir()
	oldJSON := `[{"name":"BenchmarkCheck/plain/w=1","iters":1,"ns_per_op":100,"allocs_per_op":1000},
	             {"name":"BenchmarkCheck/faithful/w=1","iters":1,"ns_per_op":100,"allocs_per_op":1000}]`
	// plain stays within 10%; faithful regresses 50%.
	newJSON := `[{"name":"BenchmarkCheck/plain/w=1","iters":1,"ns_per_op":100,"allocs_per_op":1050},
	             {"name":"BenchmarkCheck/faithful/w=1","iters":1,"ns_per_op":100,"allocs_per_op":1500}]`
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	// No gate: regressions are reported, not enforced.
	if err := runCompare(oldPath, newPath, gate{}, &bytes.Buffer{}); err != nil {
		t.Fatalf("ungated compare failed: %v", err)
	}
	// Gate restricted to the plain ladder: within threshold, passes.
	plainOnly := gate{allocsPct: 10, match: regexp.MustCompile(`plain/`)}
	if err := runCompare(oldPath, newPath, plainOnly, &bytes.Buffer{}); err != nil {
		t.Fatalf("plain ladder within 10%% should pass: %v", err)
	}
	// Gate everything: the faithful regression trips it, by name.
	err := runCompare(oldPath, newPath, gate{allocsPct: 10}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "allocation regression") {
		t.Fatalf("want allocation-regression failure, got %v", err)
	}
	if !strings.Contains(err.Error(), "faithful") {
		t.Fatalf("failure should name the regressing benchmark: %v", err)
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
	if err := run(oldPath, gate{}, "", false, []string{newPath}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"p50-ns", "+10.0%", "p99-ns", "gone", "req/s", "new"} {
		if !strings.Contains(got, want) {
			t.Errorf("metric compare missing %q:\n%s", want, got)
		}
	}
}
