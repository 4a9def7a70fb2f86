package main

import (
	"strings"
	"testing"
)

// TestLoadRunWithCheck is the acceptance path: a short open-loop run
// against a served scenario under churn, then -check's per-epoch
// deviation search over the served timeline. Figure 1 under the
// declared-cost scheme is manipulable, so the report must hold C's
// Example 1 lie (node 2 inflating its cost) in the epoch it was played.
func TestLoadRunWithCheck(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-family", "figure1", "-scheme", "declared",
		"-rate", "2000", "-duration", "500ms", "-warmup", "50ms",
		"-churn", "2", "-check",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"p50=", "p99=",
		"check: plain FPSS, 216 of 216 plays, 43 violations\n",
		`  violation: node 2 gains 8 via "misreport-cost-inflate" in epoch 1 `,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	for _, epoch := range []string{"epoch 0: ", "epoch 1: "} {
		i := strings.Index(got, epoch)
		if i < 0 {
			t.Fatalf("output missing %q:\n%s", epoch, got)
		}
		if line, _, _ := strings.Cut(got[i:], "\n"); !strings.Contains(line, " errs=0 ") {
			t.Fatalf("load slice reported errors: %s", line)
		}
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

// TestScenarioNamesParsed: -family, -workload and -costs take the
// names faithcheck takes, in any case and with spaces around them.
func TestScenarioNamesParsed(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-family", "PrefAttach", "-n", "8", "-workload", " Hotspot", "-costs", "UNIFORM",
		"-rate", "1000", "-duration", "100ms", "-warmup", "0s",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if want := "serving prefattach n=8 costs=uniform workload=hotspot "; !strings.Contains(out.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, out.String())
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
	if err := run([]string{"-loss", "1.5"}, &out); err == nil {
		t.Fatal("-loss 1.5 accepted")
	}
}

// TestWarmupOverSliceReportsNoQuantile: the default 200-ms warm-up
// discards every sample of a 200-ms slice, so the latency summary
// holds a count of zero and no quantile.
func TestWarmupOverSliceReportsNoQuantile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-family", "PrefAttach", "-n", "8", "-duration", "200ms"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "lat{n=0}") || strings.Contains(got, "p50=") {
		t.Fatalf("want lat{n=0} and no quantile:\n%s", got)
	}
}
