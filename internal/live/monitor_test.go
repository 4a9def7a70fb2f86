package live

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/rational"
	"repro/internal/scenario"
)

// manipulableSpec is a spec the plain protocol is manipulable on: the
// declared-cost pricing scheme makes cost inflation strictly
// profitable for transit nodes (Example 1 / E2), so the batch checker
// reports violations the monitor must reproduce.
func manipulableSpec() scenario.Spec {
	return scenario.Spec{Family: scenario.Figure1, Scheme: fpss.SchemeDeclaredCost}
}

func flagSet(flags []Flag) map[Flag]struct{} {
	set := make(map[Flag]struct{}, len(flags))
	for _, f := range flags {
		set[f] = struct{}{}
	}
	return set
}

func violationSet(rep core.Report) map[Flag]struct{} {
	set := make(map[Flag]struct{}, len(rep.Violations))
	for _, v := range rep.Violations {
		set[Flag{Node: v.Node, Deviation: v.Deviation}] = struct{}{}
	}
	return set
}

// TestMonitorMatchesBatchChecker is the pinned differential: one full
// sampling lap over the grid flags exactly the (node, deviation) pairs
// the batch checker reports as violations on the same scenario.
func TestMonitorMatchesBatchChecker(t *testing.T) {
	srv, err := NewServer(manipulableSpec())
	if err != nil {
		t.Fatal(err)
	}

	m := NewMonitor(MonitorConfig{Faithful: false, Workers: 4, Seed: 42})
	if err := srv.AttachMonitor(m); err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.WaitLaps(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// Stop drains in-flight plays, so after it every slot the lap
	// claimed has completed and the flag set is final for lap 1.
	m.Stop()

	rep, flags, err := m.Audit(core.CheckConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("batch checker found no violations — the pinned spec is no longer manipulable")
	}
	want, got := violationSet(rep), flagSet(flags)
	for f := range want {
		if _, ok := got[f]; !ok {
			t.Errorf("batch violation %+v not flagged by monitor", f)
		}
	}
	for f := range got {
		if _, ok := want[f]; !ok {
			t.Errorf("monitor flagged %+v but batch checker did not", f)
		}
	}
	st := m.Stats()
	if st.Plays == 0 || st.Violations == 0 {
		t.Fatalf("monitor counters empty after a full lap: %+v", st)
	}
}

// TestMonitorFlagsInjectedDeviant is the acceptance pin: inject a
// deviant the batch checker proves profitable, and the monitor's
// sampling flags that exact (node, deviation) pair.
func TestMonitorFlagsInjectedDeviant(t *testing.T) {
	sp := manipulableSpec()
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}

	// Pick the injected pair from the batch report itself, restricted
	// to deviations that have a live (protocol-part) realization — the
	// test stays pinned even if the catalogue reorders.
	comp, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := comp.Systems()
	rep, err := core.CheckFaithfulnessCfg(plain, core.CheckConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	target := Flag{Node: -1}
	for _, v := range rep.Violations {
		if d, ok := rational.FindDeviation(v.Deviation, true); ok {
			if _, live := d.ProtocolStrategy(rational.Ctx{Graph: comp.Graph, Node: 0}); live {
				target = Flag{Node: v.Node, Deviation: v.Deviation}
				break
			}
		}
	}
	if target.Node < 0 {
		t.Fatal("no batch violation has a protocol part to inject live")
	}

	if resp := srv.Dispatch(Request{Op: OpInject, Node: int(target.Node), Deviation: target.Deviation}); !resp.OK {
		t.Fatal(resp.Err)
	}

	m := NewMonitor(MonitorConfig{Faithful: false, Workers: 4, Seed: 7})
	if err := srv.AttachMonitor(m); err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.WaitLaps(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	m.Stop()

	if _, ok := flagSet(m.Flagged())[target]; !ok {
		t.Fatalf("monitor did not flag the injected deviant %+v; flagged: %v", target, m.Flagged())
	}
	// And the server really is serving the deviant's tables.
	if stats := srv.Dispatch(Request{Op: OpStats}).Stats; stats.Deviant != target.Deviation {
		t.Fatalf("server lost the injected deviant: %+v", stats)
	}
}

// TestMonitorFaithfulStaysClean pins the other direction on the same
// scenario: against the extended specification no sampled play
// strictly profits, so a full lap flags nothing.
func TestMonitorFaithfulStaysClean(t *testing.T) {
	srv, err := NewServer(scenario.Spec{Family: scenario.Figure1})
	if err != nil {
		t.Fatal(err)
	}

	m := NewMonitor(MonitorConfig{Faithful: true, Workers: 4, Seed: 9, Prune: true})
	if err := srv.AttachMonitor(m); err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.WaitLaps(1, 120*time.Second); err != nil {
		t.Fatal(err)
	}
	m.Stop()

	if flags := m.Flagged(); len(flags) != 0 {
		t.Fatalf("faithful monitor flagged %v", flags)
	}
	if st := m.Stats(); st.Errors != 0 {
		t.Fatalf("monitor plays errored: %+v", st)
	}
}
