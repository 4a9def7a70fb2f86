package live

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// MonitorConfig parameterizes the online faithfulness monitor.
type MonitorConfig struct {
	// Faithful selects which protocol variant the samples play
	// against: false = plain FPSS (the manipulable baseline — its
	// violations are what the monitor exists to surface), true = the
	// paper's extended specification.
	Faithful bool
	// Workers sizes the sampling pool (default 2).
	Workers int
	// Seed keys the sampling permutation over the (node, deviation)
	// grid.
	Seed uint64
	// Prune skips plays the system's core.Bounder proves
	// unprofitable, mirroring core.CheckConfig.Prune.
	Prune bool
}

func (c MonitorConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 2
}

// MonitorStats is a rolling counter snapshot.
type MonitorStats struct {
	// Plays counts completed sample plays; Pruned the ones the profit
	// bound skipped; Errors the plays that failed outright.
	Plays  int64 `json:"plays"`
	Pruned int64 `json:"pruned"`
	Errors int64 `json:"errors"`
	// Violations counts plays where the deviator strictly profited;
	// Detections plays where the bank flagged the deviator.
	Violations int64 `json:"violations"`
	Detections int64 `json:"detections"`
	// Laps counts completed passes over the full (node, deviation)
	// grid since the last Bind.
	Laps int64 `json:"laps"`
	// Flagged is the distinct (node, deviation) pairs seen strictly
	// profitable since the last Bind.
	Flagged int `json:"flagged"`
}

// Flag is one distinct profitable (node, deviation) pair.
type Flag struct {
	Node      core.NodeID
	Deviation string
}

type samplePair struct {
	node core.NodeID
	dev  core.Deviation
}

// sampleState is one bound epoch: the system under test, its truthful
// snapshot, its profit bound (nil unless pruning), and the seeded
// sampling order over the grid.
type sampleState struct {
	sys    core.System
	st     core.TruthfulState
	bound  core.Bounder
	grid   []samplePair
	order  []int
	cursor atomic.Int64
}

// Monitor samples (node, deviation) plays against copy-on-write
// snapshots of the bound epoch's honest state on a background worker
// pool — the online counterpart of the exhaustive batch checker. Each
// lap of the seeded permutation covers the full grid exactly once, so
// "has the monitor seen everything at least once" is Laps >= 1, and a
// full lap's flag set is comparable pair-for-pair with the batch
// report (Audit runs that comparison).
type Monitor struct {
	cfg MonitorConfig

	mu  sync.RWMutex
	cur *sampleState

	plays, pruned, violations, detections, errCount, laps atomic.Int64

	fmu     sync.Mutex
	flagged map[Flag]struct{}

	startOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// NewMonitor builds an idle monitor; Bind it to an epoch and Start the
// workers.
func NewMonitor(cfg MonitorConfig) *Monitor {
	return &Monitor{cfg: cfg, flagged: make(map[Flag]struct{}), stop: make(chan struct{})}
}

// Bind points the monitor at an epoch's scenario: it builds the
// variant's system, seeds the honest state from the central solution
// when one is authoritative (the same solution the live server's
// tables equal — pinned by the differential test), takes the truthful
// snapshot, and resets the rolling counters. Safe to call while
// workers run; in-flight plays finish against the old state.
func (m *Monitor) Bind(comp *scenario.Compiled, central *fpss.Central) error {
	plain, faithfulSys := comp.Systems()
	var sys core.System
	if m.cfg.Faithful {
		if central != nil {
			faithfulSys.SeedHonest(central.Sol)
		}
		sys = faithfulSys
	} else {
		if central != nil {
			plain.SeedHonest(central.Sol)
		}
		sys = plain
	}
	st, err := sys.Snapshot()
	if err != nil {
		return fmt.Errorf("live: monitor snapshot: %w", err)
	}
	var grid []samplePair
	for _, n := range sys.Nodes() {
		for _, d := range sys.Deviations(n) {
			grid = append(grid, samplePair{node: n, dev: d})
		}
	}
	if len(grid) == 0 {
		return errors.New("live: monitor grid is empty")
	}
	state := &sampleState{sys: sys, st: st, grid: grid, order: permute(len(grid), m.cfg.Seed)}
	if m.cfg.Prune {
		state.bound, _ = sys.(core.Bounder)
	}

	m.mu.Lock()
	m.cur = state
	m.mu.Unlock()

	m.plays.Store(0)
	m.pruned.Store(0)
	m.violations.Store(0)
	m.detections.Store(0)
	m.errCount.Store(0)
	m.laps.Store(0)
	m.fmu.Lock()
	m.flagged = make(map[Flag]struct{})
	m.fmu.Unlock()
	return nil
}

// permute returns a seeded Fisher–Yates permutation of [0, n).
func permute(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng := seed
	for i := n - 1; i > 0; i-- {
		rng++
		j := int(sim.Mix64(rng) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Start launches the worker pool (idempotent).
func (m *Monitor) Start() {
	m.startOnce.Do(func() {
		for w := 0; w < m.cfg.workers(); w++ {
			m.wg.Add(1)
			go m.worker(w)
		}
	})
}

// Stop terminates the workers and waits for them.
func (m *Monitor) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.wg.Wait()
}

func (m *Monitor) worker(w int) {
	defer m.wg.Done()
	ctx := core.NewPlayContext(w)
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		m.mu.RLock()
		state := m.cur
		m.mu.RUnlock()
		if state == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		m.sampleOne(ctx, state)
	}
}

// sampleOne claims the next grid slot of the permutation and plays it.
func (m *Monitor) sampleOne(ctx *core.PlayContext, state *sampleState) {
	i := state.cursor.Add(1) - 1
	idx := state.order[int(i)%len(state.grid)]
	if (int(i)+1)%len(state.grid) == 0 {
		defer m.laps.Add(1)
	}
	p := state.grid[idx]
	base := state.st.Baseline().Utilities[p.node]

	if state.bound != nil {
		if ub, ok := state.bound.ProfitUpperBound(p.node, p.dev); ok && ub <= base {
			m.pruned.Add(1)
			return
		}
	}

	out, err := state.sys.Play(ctx, state.st, p.node, p.dev)
	if err != nil {
		m.errCount.Add(1)
		return
	}
	m.plays.Add(1)
	// Strict improvement, exactly the batch checker's violation
	// condition (core/check.go).
	if out.Utilities[p.node] > base {
		m.violations.Add(1)
		m.fmu.Lock()
		m.flagged[Flag{Node: p.node, Deviation: p.dev.Name()}] = struct{}{}
		m.fmu.Unlock()
	}
	for _, d := range out.Detected {
		if d == p.node {
			m.detections.Add(1)
			break
		}
	}
}

// Stats snapshots the rolling counters.
func (m *Monitor) Stats() MonitorStats {
	m.fmu.Lock()
	flagged := len(m.flagged)
	m.fmu.Unlock()
	return MonitorStats{
		Plays:      m.plays.Load(),
		Pruned:     m.pruned.Load(),
		Errors:     m.errCount.Load(),
		Violations: m.violations.Load(),
		Detections: m.detections.Load(),
		Laps:       m.laps.Load(),
		Flagged:    flagged,
	}
}

// Flagged returns the distinct profitable pairs seen since the last
// Bind, sorted (node, then deviation).
func (m *Monitor) Flagged() []Flag {
	m.fmu.Lock()
	out := make([]Flag, 0, len(m.flagged))
	for f := range m.flagged {
		out = append(out, f)
	}
	m.fmu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Deviation < out[j].Deviation
	})
	return out
}

// WaitLaps blocks until the monitor has completed at least k full
// passes over the grid since the last Bind (or the timeout expires).
func (m *Monitor) WaitLaps(k int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for m.laps.Load() < k {
		if time.Now().After(deadline) {
			return fmt.Errorf("live: monitor reached %d/%d laps before timeout", m.laps.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Audit runs the batch checker over the currently bound system — the
// monitor's differential oracle — and returns its report alongside the
// monitor's current flag set. A monitor that has completed >= 1 lap
// must have flagged exactly the report's violation pairs.
func (m *Monitor) Audit(cfg core.CheckConfig) (core.Report, []Flag, error) {
	m.mu.RLock()
	state := m.cur
	m.mu.RUnlock()
	if state == nil {
		return core.Report{}, nil, errors.New("live: monitor not bound")
	}
	rep, err := core.CheckFaithfulnessCfg(state.sys, cfg)
	if err != nil {
		return core.Report{}, nil, err
	}
	return rep, m.Flagged(), nil
}
