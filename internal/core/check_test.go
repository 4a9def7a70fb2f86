package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/spec"
)

// randomFake builds a fakeSystem with a seeded random payoff table:
// ~1/3 of deviations strictly profitable, some ties, some losses.
func randomFake(seed int64) *fakeSystem {
	rng := rand.New(rand.NewSource(seed))
	f := newFake()
	kinds := []spec.ActionKind{spec.InfoRevelation, spec.MessagePassing, spec.Computation}
	for _, node := range []NodeID{0, 1} {
		for d := 0; d < 2+rng.Intn(8); d++ {
			name := fmt.Sprintf("dev-%d", d)
			delta := rng.Int63n(9) - 3 // [-3, 5]
			f.addDeviation(node, name, delta, kinds[rng.Intn(len(kinds))])
		}
	}
	return f
}

// TestDifferentialParallelVsSequential: the parallel engine must be
// byte-identical to the sequential oracle for every worker count.
func TestDifferentialParallelVsSequential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		f := randomFake(seed)
		want, err := CheckFaithfulnessCfg(f, CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := CheckFaithfulnessCfg(f, CheckConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d workers %d: parallel report %+v != sequential %+v", seed, workers, got, want)
			}
		}
	}
}

// TestEarlyStopSequentialSemantics pins the oracle behavior: stop at
// the first profitable deviation in catalogue order, Checked = its
// 1-based position.
func TestEarlyStopSequentialSemantics(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "a-loss", -1, spec.Computation)
	f.addDeviation(0, "b-win", 4, spec.MessagePassing)
	f.addDeviation(0, "c-win", 9, spec.Computation)
	f.addDeviation(1, "d-win", 2, spec.InfoRevelation)
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 {
		t.Errorf("Checked = %d, want 2 (stopped at b-win)", rep.Checked)
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Deviation != "b-win" {
		t.Errorf("violations = %v, want just b-win", rep.Violations)
	}
	if rep.CC() {
		t.Error("CC should fail via b-win")
	}
}

// TestEarlyStopParallelDeterminism: the early-stopped report must be
// identical for every worker count, even though a parallel search may
// execute more plays than the sequential one.
func TestEarlyStopParallelDeterminism(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		f := randomFake(seed)
		want, err := CheckFaithfulnessCfg(f, CheckConfig{EarlyStop: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 7} {
			got, err := CheckFaithfulnessCfg(f, CheckConfig{EarlyStop: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d workers %d: early-stop report %+v != sequential %+v", seed, workers, got, want)
			}
		}
	}
}

// TestEarlyStopOnFaithfulSystem: nothing to stop on — the report must
// equal the full search's.
func TestEarlyStopOnFaithfulSystem(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "a", -1, spec.Computation)
	f.addDeviation(1, "b", 0, spec.InfoRevelation)
	for _, workers := range []int{0, 4} {
		rep, err := CheckFaithfulnessCfg(f, CheckConfig{EarlyStop: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Faithful() || rep.Checked != 2 {
			t.Errorf("workers %d: report %+v, want faithful with Checked=2", workers, rep)
		}
	}
}

// TestParallelRunErrorDeterministic: with several plays failing, the
// engine must report the earliest failing play's error regardless of
// worker count.
func TestParallelRunErrorDeterministic(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "a", 1, spec.Computation)
	f.addDeviation(1, "b", 1, spec.Computation)
	f.runErr = errors.New("boom")
	want, wantErr := CheckFaithfulnessCfg(f, CheckConfig{})
	if wantErr == nil {
		t.Fatal("sequential run should error")
	}
	for _, workers := range []int{2, 4} {
		got, err := CheckFaithfulnessCfg(f, CheckConfig{Workers: workers})
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("workers %d: err = %v, want %v", workers, err, wantErr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers %d: report %+v, want %+v", workers, got, want)
		}
	}
}

// TestWorkersNegativeMeansGOMAXPROCS: a negative Workers must run (and
// stay deterministic) with a GOMAXPROCS-sized pool, so under
// GOMAXPROCS(1) every play runs on worker 0 however many CPUs the
// machine has. The test sets GOMAXPROCS for the whole process, so it
// must not call t.Parallel.
func TestWorkersNegativeMeansGOMAXPROCS(t *testing.T) {
	f := randomFake(42)
	want, err := CheckFaithfulnessCfg(f, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckFaithfulnessCfg(f, CheckConfig{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Workers -1 report %+v != sequential %+v", got, want)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	probe := &workerProbe{fakeSystem: f, seen: map[int]bool{}}
	if _, err := CheckFaithfulnessCfg(probe, CheckConfig{Workers: -1}); err != nil {
		t.Fatal(err)
	}
	if len(probe.seen) != 1 || !probe.seen[0] {
		t.Errorf("under GOMAXPROCS(1) plays ran on workers %v, want worker 0 only", probe.seen)
	}
}

// workerProbe records which workers play. Each play yields the
// processor, so a spare worker, if the pool has one, gets to run.
type workerProbe struct {
	*fakeSystem
	mu   sync.Mutex
	seen map[int]bool
}

func (p *workerProbe) Play(ctx *PlayContext, s TruthfulState, deviator NodeID, dev Deviation) (Outcome, error) {
	p.mu.Lock()
	p.seen[ctx.Worker()] = true
	p.mu.Unlock()
	runtime.Gosched()
	return p.fakeSystem.Play(ctx, s, deviator, dev)
}

// TestEarlyStopSavesWork: sequential early stop must not run plays
// past the stopping index.
func TestEarlyStopSavesWork(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "win", 3, spec.Computation)
	for i := 0; i < 10; i++ {
		f.addDeviation(1, fmt.Sprintf("later-%d", i), 1, spec.Computation)
	}
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1 {
		t.Errorf("Checked = %d, want 1", rep.Checked)
	}
	if f.runs != 2 { // baseline + the one stopping play
		t.Errorf("runs = %d, want 2 (baseline + stopping play)", f.runs)
	}
}
