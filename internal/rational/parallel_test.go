package rational

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestEarlyStopVerdictOnPlain: early stop must agree with the full
// search's faithful/not-faithful verdict and report the first
// profitable deviation in catalogue order.
func TestEarlyStopVerdictOnPlain(t *testing.T) {
	g := graph.Figure1()
	params := DefaultParams(g)
	full, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Faithful() {
		t.Fatal("plain FPSS should not be faithful")
	}
	seq, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{EarlyStop: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("early-stop reports diverge\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.Faithful() || len(seq.Violations) != 1 {
		t.Fatalf("early-stop report = %+v, want exactly one violation", seq)
	}
	if seq.Checked > full.Checked {
		t.Errorf("early stop checked %d > full %d", seq.Checked, full.Checked)
	}
	// The reported violation is the first one a sequential full search
	// records (catalogue order: node-major, then deviation order).
	first := full.Violations[0]
	for _, v := range full.Violations {
		if v.Node < first.Node {
			first = v
		}
	}
	if seq.Violations[0].Node != first.Node {
		t.Errorf("early-stop violation node = %d, want first node %d", seq.Violations[0].Node, first.Node)
	}
}

// TestSystemsShareScenarioState: repeated calls must return the same
// shared read-only slices (no per-call rebuilding), and concurrent
// Play must not mutate them.
func TestSystemsShareScenarioState(t *testing.T) {
	g := graph.Figure1()
	sys := &FaithfulSystem{Graph: g, Params: DefaultParams(g)}
	d1, d2 := sys.Deviations(0), sys.Deviations(1)
	if len(d1) == 0 || &d1[0] != &d2[0] {
		t.Error("Deviations should return the shared per-scenario catalogue")
	}
	n1, n2 := sys.Nodes(), sys.Nodes()
	if len(n1) == 0 || &n1[0] != &n2[0] {
		t.Error("Nodes should return the shared per-scenario list")
	}
}
