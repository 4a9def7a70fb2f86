package main

import (
	"strings"
	"testing"
)

// TestLoadRunWithMonitor is the acceptance path: a short open-loop run
// against a served scenario with the online monitor enabled, under
// churn, printing the latency histogram and monitor counters.
func TestLoadRunWithMonitor(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-family", "figure1", "-scheme", "declared",
		"-rate", "2000", "-duration", "500ms", "-warmup", "50ms",
		"-churn", "2", "-monitor",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"epoch 0:", "epoch 1:", "p50=", "p99=", "monitor: plays="} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "errors=") && !strings.Contains(got, "errors=0") {
		t.Fatalf("load run reported errors:\n%s", got)
	}
}

// TestInjectFlagAndListen covers the remaining surface: -inject
// installs a catalogued deviant before serving and -listen binds the
// TCP front end.
func TestInjectFlagAndListen(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-family", "figure1", "-scheme", "declared",
		"-inject", "2:misreport-cost-inflate",
		"-listen", "127.0.0.1:0",
		"-rate", "1000", "-duration", "200ms", "-warmup", "0s",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{`injected deviant: node 2 running "misreport-cost-inflate"`, "rpc listening on 127.0.0.1:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scheme", "nonsense"}, &out); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := run([]string{"-inject", "garbage"}, &out); err == nil {
		t.Fatal("malformed -inject accepted")
	}
}
