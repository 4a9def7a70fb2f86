package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rational"
)

// This file holds the benchmark's tracing, all of it outside the
// program: wrappers around the systems handed to core and the
// dispatcher handed to live.Serve, plus a timer for the coarse calls
// the benchmark makes itself. No production package is instrumented.

// playKinds classes a play by the path the system takes for it:
// replay re-runs the protocol simulation, exec overlays an
// execution-only deviation on the snapshot, settle overlays a
// settlement-only one, and epoch is any per-epoch churn play.
var playKinds = []string{"replay", "exec", "settle", "epoch"}

const (
	kindReplay = iota
	kindExec
	kindSettle
	kindEpoch
	numKinds
)

const (
	variantPlain = iota
	variantFaithful
	numVariants
)

const numPlayClasses = numVariants * numKinds

// playClass indexes a play's (variant, kind) bucket.
func playClass(variant int, dev core.Deviation) int {
	kind := kindReplay
	if d, ok := dev.(*rational.Deviation); ok {
		switch {
		case d.ExecOnly():
			kind = kindExec
		case d.SettleOnly():
			kind = kindSettle
		}
	}
	return variant*numKinds + kind
}

func playClassName(c int) string {
	v := "plain"
	if c/numKinds == variantFaithful {
		v = "faithful"
	}
	return "play." + v + "." + playKinds[c%numKinds]
}

// playTrace records every play's duration in the slot of the worker
// that ran it: core hands each worker its own PlayContext, so no two
// goroutines ever append to the same slice.
type playTrace struct {
	slots [][numPlayClasses]durations
}

func newPlayTrace(workers int) *playTrace {
	return &playTrace{slots: make([][numPlayClasses]durations, workers)}
}

func (t *playTrace) add(ctx *core.PlayContext, class int, d time.Duration) {
	w := ctx.Worker()
	t.slots[w][class] = append(t.slots[w][class], d)
}

// merged concatenates the worker slots in slot order.
func (t *playTrace) merged() [numPlayClasses]durations {
	var out [numPlayClasses]durations
	for _, slot := range t.slots {
		for c := range slot {
			out[c] = append(out[c], slot[c]...)
		}
	}
	return out
}

// The wrappers embed the concrete systems rather than an interface, so
// every optional face core looks for (StatefulSystem, Bounder,
// StatefulEpochedSystem) stays visible: an interface-typed field would
// hide them and silently move core onto its Run fallback.
var (
	_ core.StatefulSystem        = tracedPlain{}
	_ core.Bounder               = tracedPlain{}
	_ core.StatefulSystem        = tracedFaithful{}
	_ core.Bounder               = tracedFaithful{}
	_ core.StatefulEpochedSystem = tracedChurn{}
	_ core.Bounder               = tracedChurn{}
)

type tracedPlain struct {
	*rational.PlainSystem
	trace *playTrace
}

func (s tracedPlain) Play(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	start := time.Now()
	out, err := s.PlainSystem.Play(ctx, st, deviator, dev)
	s.trace.add(ctx, playClass(variantPlain, dev), time.Since(start))
	return out, err
}

type tracedFaithful struct {
	*rational.FaithfulSystem
	trace *playTrace
}

func (s tracedFaithful) Play(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	start := time.Now()
	out, err := s.FaithfulSystem.Play(ctx, st, deviator, dev)
	s.trace.add(ctx, playClass(variantFaithful, dev), time.Since(start))
	return out, err
}

type tracedChurn struct {
	*churn.System
	class int
	trace *playTrace
}

func (s tracedChurn) Play(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	start := time.Now()
	out, err := s.System.Play(ctx, st, deviator, dev)
	s.trace.add(ctx, s.class, time.Since(start))
	return out, err
}

func (s tracedChurn) PlayEpoch(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation, epoch int) (core.Outcome, error) {
	start := time.Now()
	out, err := s.System.PlayEpoch(ctx, st, deviator, dev, epoch)
	s.trace.add(ctx, s.class, time.Since(start))
	return out, err
}

// layerTimes accumulates the coarse layer calls the benchmark makes
// itself (compile, timeline build, central solve, boundary repair,
// snapshot): total time and call count per layer.
type layerTimes struct {
	d map[string]time.Duration
	n map[string]int
}

func newLayerTimes() *layerTimes {
	return &layerTimes{d: map[string]time.Duration{}, n: map[string]int{}}
}

// time runs f and charges its wall time to layer.
func (l *layerTimes) time(layer string, f func() error) error {
	start := time.Now()
	err := f()
	l.d[layer] += time.Since(start)
	l.n[layer]++
	return err
}

func (l *layerTimes) merge(o *layerTimes) {
	for k, v := range o.d {
		l.d[k] += v
	}
	for k, v := range o.n {
		l.n[k] += v
	}
}

func (l *layerTimes) total() time.Duration {
	var t time.Duration
	for _, v := range l.d {
		t += v
	}
	return t
}

// report sets the coarse layer metrics, averaged over reps set-ups or
// passes.
func (l *layerTimes) report(r *result, reps int) {
	per := func(v float64) float64 { return v / float64(max(reps, 1)) }
	for _, layer := range []string{"scenario.compile", "churn.build", "rational.snapshot", "fpss.central", "churn.boundary"} {
		r.set(layer+"_ms", per(ms(l.d[layer])))
	}
	for _, layer := range []string{"rational.snapshot", "fpss.central", "churn.boundary"} {
		r.set(layer+".n", per(float64(l.n[layer])))
	}
}

// timedDispatcher is the Dispatcher handed to live.Serve. While on, it
// times every Server.Dispatch call; while off it adds one atomic load.
type timedDispatcher struct {
	srv *live.Server
	on  *atomic.Bool

	mu    sync.Mutex
	spent durations
}

func (t *timedDispatcher) Dispatch(req live.Request) live.Response {
	if !t.on.Load() {
		return t.srv.Dispatch(req)
	}
	start := time.Now()
	resp := t.srv.Dispatch(req)
	d := time.Since(start)
	t.mu.Lock()
	t.spent = append(t.spent, d)
	t.mu.Unlock()
	return resp
}

func (t *timedDispatcher) samples() durations {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(durations(nil), t.spent...)
}
