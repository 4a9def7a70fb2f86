package core

// PlayContext is the arena a worker threads through consecutive plays
// so steady-state plays can reuse graph scratch, pooled networks,
// bank ledgers, and result maps instead of re-materializing them. The
// engine owns one context per worker (or one per play under
// CheckConfig.FreshContexts) and never shares a context between
// goroutines; a System's Play may therefore mutate it freely.
//
// Ownership contract: anything a Play returns out of the context —
// in particular the Outcome — is valid only until the next Play on
// the same context. The engine honors this by extracting what it
// needs (the deviator's utility) before reusing the context.
type PlayContext struct {
	worker  int
	scratch map[any]any
}

// NewPlayContext returns an empty context tagged with a worker index.
// Exposed for oracles and tests that drive System.Play directly; the
// engine builds its own.
func NewPlayContext(worker int) *PlayContext {
	return &PlayContext{worker: worker}
}

// Worker returns the owning worker's index (0-based).
func (c *PlayContext) Worker() int {
	if c == nil {
		return 0
	}
	return c.worker
}

// Value returns the context's entry for key, calling mk to build it
// on first use. Keys follow the context.Context convention: packages
// key with unexported types of their own, so the rational and churn
// arenas coexist in one context without colliding. A nil context
// builds a fresh value every call — Play implementations degrade to
// unpooled allocation rather than failing.
func (c *PlayContext) Value(key any, mk func() any) any {
	if c == nil {
		if mk == nil {
			return nil
		}
		return mk()
	}
	if v, ok := c.scratch[key]; ok {
		return v
	}
	if mk == nil {
		return nil
	}
	if c.scratch == nil {
		c.scratch = make(map[any]any)
	}
	v := mk()
	c.scratch[key] = v
	return v
}

// TruthfulState is an immutable snapshot of the honest run: whatever
// per-scenario state a System computes once (converged routing and
// pricing tables, advertisements, ledgers) so that deviant plays can
// overlay it copy-on-write instead of rebuilding it. Implementations
// must be safe for concurrent reads — every worker plays against the
// same snapshot.
type TruthfulState interface {
	// Baseline returns the honest outcome the snapshot embeds. The
	// returned Outcome is shared and read-only.
	Baseline() Outcome
}

// StatefulSystem is System under its former name, kept only because
// the perfbench module still spells it.
type StatefulSystem = System

// StatefulEpochedSystem is EpochedSystem under its former name, kept
// only because the perfbench module still spells it.
type StatefulEpochedSystem = EpochedSystem

// AsStateful returns sys unchanged. It is kept only because the
// perfbench module still calls it.
func AsStateful(sys System) StatefulSystem { return sys }
