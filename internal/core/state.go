package core

// PlayContext is what the engine hands each Play: the index of the
// worker running it. The engine owns one context per worker and never
// shares a context between goroutines. A play keeps no state in it, so
// an Outcome a Play returns belongs to the caller.
type PlayContext struct {
	worker int
}

// NewPlayContext returns a context tagged with a worker index.
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
