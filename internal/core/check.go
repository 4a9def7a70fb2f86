package core

import (
	"errors"
	"fmt"

	"repro/internal/par"
	"repro/internal/spec"
)

// errSearchEnded fails the job of a play whose result ends the search.
var errSearchEnded = errors.New("search ended")

// play is one (node, deviation) pair in catalogue order — or one
// (node, deviation, epoch) triple under PerEpoch, with epoch as the
// innermost axis.
type play struct {
	node NodeID
	base int64
	dev  Deviation
	// epoch is the 0-based pinned epoch; -1 means the whole run.
	epoch int
}

// playResult is the outcome of one play, recorded by job index so the
// engine's output is independent of worker scheduling.
type playResult struct {
	violation *Violation
	err       error
}

// engine carries one search's resolved shape: the system under test,
// the truthful snapshot every play overlays, and the epoch view when
// the grid is per-epoch.
type engine struct {
	sys     System
	st      TruthfulState
	epoched EpochedSystem // non-nil iff cfg.PerEpoch
}

// check is the deviation-search engine behind CheckFaithfulnessCfg.
//
// Determinism invariant: the Report (and any error) depends only on
// the System and the config's semantic fields (EarlyStop, PerEpoch,
// Prune) — never on the worker count or scheduling. Every job writes
// its result into its own catalogue-order slot; violations are
// collected in slot order and errors are reported for the earliest
// failing slot — exactly what the sequential loop would have
// produced. Pruning is decided at enumeration time from the static
// bound, so every worker count prunes the same plays. A parallel
// early-stopped search may *execute* more plays than the sequential
// one, but it reports the same ones.
func check(sys System, cfg CheckConfig) (Report, error) {
	st, err := sys.Snapshot()
	if err != nil {
		return Report{}, fmt.Errorf("%w: %v", ErrNoBaseline, err)
	}
	e := engine{sys: sys, st: st}
	baseline := st.Baseline()

	// Enumerate the catalogue up front (sequentially — Deviations need
	// not be concurrency-safe). The baseline must price every node
	// before any deviant play runs; prune decisions are taken here,
	// once, so they cannot depend on scheduling.
	if cfg.PerEpoch {
		var ok bool
		if e.epoched, ok = sys.(EpochedSystem); !ok {
			return Report{}, ErrNotEpoched
		}
	}
	var bounder Bounder
	if cfg.Prune {
		bounder, _ = sys.(Bounder)
	}
	var plays, pruned []play
	add := func(p play) {
		if bounder != nil {
			if bound, ok := bounder.ProfitUpperBound(p.node, p.dev); ok && bound <= p.base {
				// A violation needs a strict gain; a bound at or
				// below the baseline proves there is none.
				pruned = append(pruned, p)
				return
			}
		}
		plays = append(plays, p)
	}
	for _, node := range sys.Nodes() {
		base, ok := baseline.Utilities[node]
		if !ok {
			return Report{}, fmt.Errorf("core: baseline missing utility for node %d", node)
		}
		for _, dev := range sys.Deviations(node) {
			if e.epoched == nil {
				add(play{node: node, base: base, dev: dev, epoch: -1})
				continue
			}
			epochs := e.epoched.EpochsOf(node, dev)
			if epochs == nil {
				for ep := 0; ep < e.epoched.NumEpochs(); ep++ {
					add(play{node: node, base: base, dev: dev, epoch: ep})
				}
				continue
			}
			for _, ep := range epochs {
				add(play{node: node, base: base, dev: dev, epoch: ep})
			}
		}
	}

	// Each worker owns one context, numbered from the calling
	// goroutine's 0. A play whose result ends the search (any error —
	// the fold returns the earliest one, discarding the report — or a
	// violation under early stop) fails its job, so the workers stop
	// claiming plays past it. Every play below the earliest such one
	// still runs, which is all the fold reads.
	ctxs := make([]PlayContext, min(cfg.workerCount(), len(plays)))
	for w := range ctxs {
		ctxs[w].worker = w
	}
	results := make([]playResult, len(plays))
	_ = par.Run(ctxs, len(plays), func(ctx *PlayContext, i int) error {
		r := e.runPlay(ctx, plays[i])
		results[i] = r
		if r.err != nil || (cfg.EarlyStop && r.violation != nil) {
			return errSearchEnded
		}
		return nil
	})

	// Fold results in catalogue order.
	rep := Report{Pruned: len(pruned)}
	folded := false
	for i := range results {
		if err := results[i].err; err != nil {
			return Report{}, err
		}
		if !cfg.EarlyStop {
			if v := results[i].violation; v != nil {
				rep.Violations = append(rep.Violations, *v)
			}
			continue
		}
		if v := results[i].violation; v != nil {
			rep.Checked = i + 1
			rep.Violations = []Violation{*v}
			sortViolations(rep.Violations)
			folded = true
			break
		}
	}
	if !folded {
		rep.Checked = len(plays)
		sortViolations(rep.Violations)
	}
	if cfg.VerifyPruned {
		if err := e.verifyPruned(pruned); err != nil {
			return Report{}, err
		}
	}
	return rep, nil
}

// verifyPruned replays every pruned play sequentially and fails if any
// of them turns out profitable — the debug net under an unsound
// Bounder.
func (e *engine) verifyPruned(pruned []play) error {
	ctx := NewPlayContext(0)
	for _, p := range pruned {
		out, err := e.playOutcome(ctx, p)
		if err != nil {
			return fmt.Errorf("core: verify pruned node %d deviation %q: %w", p.node, p.dev.Name(), err)
		}
		if got, ok := out.Utilities[p.node]; ok && got > p.base {
			return fmt.Errorf("core: unsound prune bound: node %d deviation %q epoch %d pruned but gains %d (baseline %d, deviant %d)",
				p.node, p.dev.Name(), p.epoch+1, got-p.base, p.base, got)
		}
	}
	return nil
}

// playOutcome executes one play against the truthful snapshot.
func (e *engine) playOutcome(ctx *PlayContext, p play) (Outcome, error) {
	if p.epoch >= 0 {
		return e.epoched.PlayEpoch(ctx, e.st, p.node, p.dev, p.epoch)
	}
	return e.sys.Play(ctx, e.st, p.node, p.dev)
}

// runPlay executes one deviant play and classifies the outcome. The
// deviation's Classes slice is copied only when a violation is
// recorded — Classes may return a shared slice (rational.Deviation's
// does).
func (e *engine) runPlay(ctx *PlayContext, p play) playResult {
	out, err := e.playOutcome(ctx, p)
	if err != nil {
		return playResult{err: fmt.Errorf("core: run node %d deviation %q: %w", p.node, p.dev.Name(), err)}
	}
	got, ok := out.Utilities[p.node]
	if !ok {
		return playResult{err: fmt.Errorf("core: deviant run missing utility for node %d", p.node)}
	}
	if got <= p.base {
		return playResult{}
	}
	return playResult{violation: &Violation{
		Node:      p.node,
		Deviation: p.dev.Name(),
		Classes:   append([]spec.ActionKind(nil), p.dev.Classes()...),
		Baseline:  p.base,
		Deviant:   got,
		Epoch:     p.epoch + 1,
	}}
}
