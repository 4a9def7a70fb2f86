package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/spec"
)

// fakeEpoched is a 2-node, multi-epoch game: gains are per (node,
// deviation, epoch); a whole-run play sums the gains over the
// deviation's activity set.
type fakeEpoched struct {
	epochs   int
	baseline map[NodeID]int64
	devs     map[NodeID][]Deviation
	// gain[node][dev][epoch] = delta vs baseline when active in epoch.
	gain map[NodeID]map[string][]int64
	// active[node][dev] = activity set (nil = every epoch).
	active map[NodeID]map[string][]int

	mu   sync.Mutex
	runs int
}

func newFakeEpoched(epochs int) *fakeEpoched {
	return &fakeEpoched{
		epochs:   epochs,
		baseline: map[NodeID]int64{0: 100, 1: 50},
		devs:     map[NodeID][]Deviation{},
		gain:     map[NodeID]map[string][]int64{0: {}, 1: {}},
		active:   map[NodeID]map[string][]int{0: {}, 1: {}},
	}
}

func (f *fakeEpoched) addDeviation(n NodeID, name string, perEpoch []int64, active []int, classes ...spec.ActionKind) {
	f.devs[n] = append(f.devs[n], BasicDeviation{DevName: name, DevClasses: classes})
	f.gain[n][name] = perEpoch
	f.active[n][name] = active
}

func (f *fakeEpoched) Nodes() []NodeID                 { return []NodeID{0, 1} }
func (f *fakeEpoched) NumEpochs() int                  { return f.epochs }
func (f *fakeEpoched) Deviations(n NodeID) []Deviation { return f.devs[n] }

func (f *fakeEpoched) EpochsOf(n NodeID, dev Deviation) []int {
	return f.active[n][dev.Name()]
}

func (f *fakeEpoched) outcome(deviator NodeID, dev Deviation, pin int) Outcome {
	f.mu.Lock()
	f.runs++
	f.mu.Unlock()
	u := make(map[NodeID]int64, len(f.baseline))
	for k, v := range f.baseline {
		u[k] = v
	}
	if deviator >= 0 && dev != nil {
		activity := f.active[deviator][dev.Name()]
		if activity == nil {
			activity = make([]int, f.epochs)
			for e := range activity {
				activity[e] = e
			}
		}
		for _, e := range activity {
			if pin >= 0 && e != pin {
				continue
			}
			u[deviator] += f.gain[deviator][dev.Name()][e]
		}
	}
	return Outcome{Utilities: u, Completed: true}
}

func (f *fakeEpoched) Snapshot() (TruthfulState, error) {
	return fakeState{f.outcome(-1, nil, -1)}, nil
}

func (f *fakeEpoched) Play(_ *PlayContext, _ TruthfulState, deviator NodeID, dev Deviation) (Outcome, error) {
	return f.outcome(deviator, dev, -1), nil
}

func (f *fakeEpoched) PlayEpoch(_ *PlayContext, _ TruthfulState, deviator NodeID, dev Deviation, epoch int) (Outcome, error) {
	if epoch < 0 || epoch >= f.epochs {
		return Outcome{}, errors.New("epoch out of range")
	}
	return f.outcome(deviator, dev, epoch), nil
}

// TestPerEpochRequiresEpochedSystem: a plain System cannot be checked
// per epoch.
func TestPerEpochRequiresEpochedSystem(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "x", 1, spec.Computation)
	if _, err := CheckFaithfulnessCfg(f, CheckConfig{PerEpoch: true}); !errors.Is(err, ErrNotEpoched) {
		t.Fatalf("err = %v, want ErrNotEpoched", err)
	}
}

// TestPerEpochGridAndAttribution: the grid expands along the epoch
// axis, violations carry their 1-based epoch, and epochs outside the
// activity set are not played.
func TestPerEpochGridAndAttribution(t *testing.T) {
	f := newFakeEpoched(3)
	// Profitable only in epoch 1 (0-based) of three.
	f.addDeviation(0, "boundary", []int64{0, 7, 0}, []int{1}, spec.Computation)
	// Active everywhere, profitable in epochs 0 and 2.
	f.addDeviation(1, "everywhere", []int64{3, -2, 5}, nil, spec.MessagePassing)
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{PerEpoch: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1+3 {
		t.Errorf("Checked = %d, want 4 (1 pinned + 3 epochs)", rep.Checked)
	}
	want := []Violation{
		{Node: 0, Deviation: "boundary", Classes: []spec.ActionKind{spec.Computation}, Baseline: 100, Deviant: 107, Epoch: 2},
		{Node: 1, Deviation: "everywhere", Classes: []spec.ActionKind{spec.MessagePassing}, Baseline: 50, Deviant: 53, Epoch: 1},
		{Node: 1, Deviation: "everywhere", Classes: []spec.ActionKind{spec.MessagePassing}, Baseline: 50, Deviant: 55, Epoch: 3},
	}
	if !reflect.DeepEqual(rep.Violations, want) {
		t.Errorf("violations = %+v, want %+v", rep.Violations, want)
	}
	if rep.Faithful() {
		t.Error("violations present but report claims faithful")
	}
}

// TestPerEpochViolationString: epoch-attributed violations render the
// epoch; static ones keep the pre-churn format.
func TestPerEpochViolationString(t *testing.T) {
	v := Violation{Node: 3, Deviation: "d", Baseline: 1, Deviant: 2}
	if got := v.String(); got != `node 3 gains 1 via "d" (classes [])` {
		t.Errorf("static violation renders %q", got)
	}
	v.Epoch = 2
	if got := v.String(); got != `node 3 gains 1 via "d" in epoch 2 (classes [])` {
		t.Errorf("epoched violation renders %q", got)
	}
}

// randomFakeEpoched builds a seeded multi-epoch payoff table with a
// mix of activity sets.
func randomFakeEpoched(seed int64) *fakeEpoched {
	rng := rand.New(rand.NewSource(seed))
	epochs := 2 + rng.Intn(3)
	f := newFakeEpoched(epochs)
	kinds := []spec.ActionKind{spec.InfoRevelation, spec.MessagePassing, spec.Computation}
	for _, node := range []NodeID{0, 1} {
		for d := 0; d < 2+rng.Intn(6); d++ {
			gains := make([]int64, epochs)
			for e := range gains {
				gains[e] = rng.Int63n(9) - 3
			}
			var active []int
			if rng.Intn(2) == 0 {
				for e := 0; e < epochs; e++ {
					if rng.Intn(2) == 0 {
						active = append(active, e)
					}
				}
				if active == nil {
					active = []int{rng.Intn(epochs)}
				}
			}
			f.addDeviation(node, fmt.Sprintf("dev-%d", d), gains, active, kinds[rng.Intn(len(kinds))])
		}
	}
	return f
}

// TestPerEpochDifferentialParallelVsSequential: the epoch-expanded
// grid keeps the engine's determinism invariant — byte-identical
// reports for every worker count, with and without early stop.
func TestPerEpochDifferentialParallelVsSequential(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		f := randomFakeEpoched(seed)
		for _, earlyStop := range []bool{false, true} {
			cfg := CheckConfig{PerEpoch: true, EarlyStop: earlyStop}
			want, err := CheckFaithfulnessCfg(f, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 5} {
				cfg.Workers = workers
				got, err := CheckFaithfulnessCfg(f, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d workers %d earlyStop=%v: %+v != sequential %+v",
						seed, workers, earlyStop, got, want)
				}
			}
		}
	}
}

// TestPerEpochEarlyStopSavesWork: a pinned grid stops at the first
// profitable (node, deviation, epoch) triple in order.
func TestPerEpochEarlyStopSavesWork(t *testing.T) {
	f := newFakeEpoched(4)
	f.addDeviation(0, "win-late", []int64{0, 0, 6, 0}, nil, spec.Computation)
	f.addDeviation(1, "win-early", []int64{2, 0, 0, 0}, nil, spec.Computation)
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{PerEpoch: true, EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 3 {
		t.Errorf("Checked = %d, want 3 (node 0 epochs 1..3 in order)", rep.Checked)
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Epoch != 3 || rep.Violations[0].Deviation != "win-late" {
		t.Errorf("violations = %+v, want win-late@epoch3", rep.Violations)
	}
}
