package churn

import (
	"fmt"

	"repro/internal/core"
)

// This file implements core.EpochedSystem's Snapshot, Play and
// PlayEpoch for the timeline system: the truthful state is the
// per-epoch snapshot vector built by init() (each epoch's converged
// tables and honest outcome), plays route every deviant epoch through
// the underlying rational system's overlay, and timeline-level utility
// maps come from the worker's play context.

// arenaKey keys the churn arena in a core.PlayContext (distinct from
// the rational package's key, so both coexist on one context).
type arenaKey struct{}

type playArena struct {
	util map[core.NodeID]int64
}

// timelineUtilities returns the identity-keyed utility map for one
// timeline play — the context's reusable map, or a fresh one for a nil
// context.
func timelineUtilities(ctx *core.PlayContext, hint int) map[core.NodeID]int64 {
	if ctx == nil {
		return make(map[core.NodeID]int64, hint)
	}
	ar := ctx.Value(arenaKey{}, func() any { return &playArena{} }).(*playArena)
	if ar.util == nil {
		ar.util = make(map[core.NodeID]int64, hint)
	} else {
		clear(ar.util)
	}
	return ar.util
}

// timelineState is the timeline's truthful snapshot: the honest
// whole-run outcome (per-epoch honest outcomes summed per identity).
// The per-epoch snapshots themselves live on the System — they are
// shared, read-only state, like the scenario caches.
type timelineState struct {
	base core.Outcome
}

// Baseline implements core.TruthfulState.
func (st *timelineState) Baseline() core.Outcome { return st.base }

// Snapshot implements core.System: one honest aggregation of
// the timeline, retained. The per-epoch truthful snapshots are built
// by init(), so this costs one summation beyond what any run pays.
func (s *System) Snapshot() (core.TruthfulState, error) {
	if err := s.init(); err != nil {
		return nil, err
	}
	s.snapOnce.Do(func() {
		base, err := s.run(nil, -1, nil, -1)
		if err != nil {
			s.snapErr = err
			return
		}
		s.snap = &timelineState{base: base}
	})
	if s.snapErr != nil {
		return nil, s.snapErr
	}
	return s.snap, nil
}

// Play implements core.System: the deviation is active in every epoch
// of its activity set — the dynamic analogue of a static deviant
// playing its strategy for the whole run. The returned Outcome's map
// belongs to the context's arena (valid until the next Play on it).
func (s *System) Play(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	if deviator < 0 || dev == nil {
		if ts, ok := st.(*timelineState); ok {
			return ts.base, nil
		}
	}
	return s.run(ctx, deviator, dev, -1)
}

// PlayEpoch implements core.EpochedSystem: the deviation is pinned to
// one epoch, every other epoch plays the suggested specification.
func (s *System) PlayEpoch(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation, epoch int) (core.Outcome, error) {
	if epoch < 0 || epoch >= len(s.tl.Epochs) {
		return core.Outcome{}, fmt.Errorf("churn: epoch %d out of range [0,%d)", epoch, len(s.tl.Epochs))
	}
	return s.run(ctx, deviator, dev, epoch)
}

// ProfitUpperBound implements core.Bounder. Under the extended
// specification an execution-only deviation (every boundary exit scam,
// plus the catalogue's payment misreports) cannot beat the honest
// timeline: within each epoch the bank settles the misreport back to
// the true obligation and fines ε above it, so the deviator's epoch
// utility never exceeds its honest value; whitewashing epochs credit
// got − honest ≤ 0 on top. The bound covers whole-timeline and pinned
// plays alike. Plain FPSS trusts DATA4 — exit scams genuinely profit —
// so no bound is claimed there, and none for deviations that touch
// construction (e.g. stale catalogues).
func (s *System) ProfitUpperBound(deviator core.NodeID, dev core.Deviation) (int64, bool) {
	if s.variant != Faithful {
		return 0, false
	}
	d, ok := dev.(*deviation)
	if !ok || !d.execOnly {
		return 0, false
	}
	st, err := s.Snapshot()
	if err != nil {
		return 0, false
	}
	base, ok := st.Baseline().Utilities[deviator]
	if !ok {
		return 0, false
	}
	return base, true
}
