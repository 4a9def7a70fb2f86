package sim

import "sync"

// This file is the lossy-links failure axis at the simulator level:
// a seeded, per-link drop model with a bounded sender-side retry
// envelope. The paper's network is reliable; §5 observes that other
// failure models (general omission, failstop) can make the faithful
// construction "falsely detect and punish manipulation". The drop
// model makes omission a declarative, deterministic property of a run
// so the layers above (fpss, faithful, scenario) can study exactly
// that interplay instead of reproducing it as one-off tamper hooks.

// LossModel configures seeded per-link message loss. The zero value
// means a reliable network — byte-identical behavior to a network
// without the model installed.
//
// Loss is resolved at send time: the sender draws attempts from the
// link's deterministic schedule stream until one gets through or the
// attempt budget is exhausted. A message that succeeds on attempt k is
// delivered at now + delay + (k-1)·RetryDelay — the cost of the failed
// attempts plus their retransmission timeouts — with each failed
// attempt counted in Counters.Dropped and the extras in
// Counters.Retried. A message whose every attempt drops is permanently
// lost (Counters.Lost), an event of probability ≈Rate^Attempts per
// message (the Gilbert–Elliott channel idles through each
// retransmission timeout, so retries are decorrelated even in bursty
// models); the envelope makes Lost == 0 the overwhelmingly common case
// below moderate rates, which is what lets protocol layers treat
// Lost > 0 as a network fault to attribute loudly instead of a node
// fault to punish.
//
// Delivery times on one (from, to) link are clamped non-decreasing, so
// retries never reorder a link: a retransmitted table update cannot
// overtake — or be overtaken by — a newer one. Checker mirrors stay
// convergent under loss precisely because of this FIFO guarantee (see
// internal/faithful).
type LossModel struct {
	// Rate is the per-attempt drop probability in [0, 1).
	Rate float64
	// Burst is the mean loss-burst length in messages (Gilbert–Elliott
	// two-state channel). Values <= 1 mean independent per-attempt
	// drops. The stationary drop rate stays Rate either way.
	Burst float64
	// Seed keys the drop-schedule stream. Per-link streams are derived
	// from it with Mix64, so no two links share a schedule and a
	// link's schedule is independent of traffic on other links.
	Seed uint64
	// Attempts bounds delivery attempts per message (default 10).
	Attempts int
	// RetryDelay is the extra delivery delay per failed attempt — a
	// retransmission timeout (default 4 ticks).
	RetryDelay int64
}

// Enabled reports whether the model actually drops anything.
func (m LossModel) Enabled() bool { return m.Rate > 0 }

func (m LossModel) attempts() int {
	if m.Attempts > 0 {
		return m.Attempts
	}
	return 10
}

func (m LossModel) retryDelay() int64 {
	if m.RetryDelay > 0 {
		return m.RetryDelay
	}
	return 4
}

// Mix64 is the classic splitmix64 finalizer (Steele et al.), enough to
// decorrelate neighboring identities. It is the one mixing function
// every seed-derivation path in the repository shares — suite seed
// keying and the churn schedule stream (via scenario.Mix64, which
// delegates here) and the per-link drop schedules — so the paths can
// never silently diverge. It lives in sim because sim is the leaf
// package every seed consumer can import.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WithLoss installs a seeded per-link drop model. A zero (disabled)
// model is a no-op, so threading an unset configuration through is
// always safe.
func WithLoss(m LossModel) Option {
	return func(n *Network) { n.SetLoss(m) }
}

// SetLoss installs (or, with a disabled model, removes) the drop model
// on an existing network — e.g. a pooled one, where the options ran at
// acquisition time and the loss axis arrives with the run
// configuration. Reset clears it, so pooled networks cannot leak a
// previous scenario's loss schedule.
func (n *Network) SetLoss(m LossModel) {
	if !m.Enabled() {
		n.loss = nil
		return
	}
	n.loss = &lossState{model: m}
}

// linkKey identifies one directed link's schedule stream.
type linkKey struct{ from, to Addr }

// lossState is a network's installed drop model plus the per-link
// stream positions it has materialized so far.
type lossState struct {
	model LossModel
	links map[linkKey]*linkLoss
}

// link returns (materializing on first use) the schedule state of one
// directed link. The stream seed mixes the link's endpoints into the
// model seed, so schedules are positional: the k-th message on a link
// sees the same fate in every run of the same model, regardless of
// what other links carry.
func (s *lossState) link(from, to Addr) *linkLoss {
	k := linkKey{from: from, to: to}
	if l, ok := s.links[k]; ok {
		return l
	}
	if s.links == nil {
		s.links = make(map[linkKey]*linkLoss)
	}
	l := &linkLoss{state: Mix64(s.model.Seed ^ Mix64(uint64(from)<<21^uint64(to)))}
	s.links[k] = l
	return l
}

// linkLoss is one directed link's loss state: a splitmix64 stream
// position, the Gilbert–Elliott channel state, and the FIFO clamp for
// delivery times.
type linkLoss struct {
	state  uint64
	bad    bool
	lastAt int64
}

// next advances the stream and returns a uniform draw in [0, 1).
func (l *linkLoss) next() float64 {
	l.state += 0x9e3779b97f4a7c15
	x := l.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// idle advances the Gilbert–Elliott channel through d idle ticks — a
// retransmission timeout during which no attempt is made but the
// channel keeps evolving. I.i.d. models have no state to evolve.
func (l *linkLoss) idle(m LossModel, d int64) {
	if m.Burst <= 1 {
		return
	}
	for i := int64(0); i < d; i++ {
		l.transition(m)
	}
}

// transition performs one Gilbert–Elliott state step (see drop for the
// probability derivation).
func (l *linkLoss) transition(m LossModel) {
	if l.bad {
		if l.next() < 1/m.Burst {
			l.bad = false
		}
		return
	}
	pGB := m.Rate / (m.Burst * (1 - m.Rate))
	if pGB > 1 {
		pGB = 1
	}
	if l.next() < pGB {
		l.bad = true
	}
}

// LossScheduler is a standalone, concurrency-safe view of a
// LossModel's per-link schedule streams for runtimes other than the
// event simulator — livenet's goroutine mailboxes resolve each send
// through one of these instead of the Network's embedded lossState.
// Outcome consumes exactly the schedule positions the simulator's
// enqueue loop would (attempt draws plus the retransmission-timeout
// idles between failed attempts), so a live run and a simulated run
// that put the k-th message on a link in the same order see identical
// per-link fates and identical Dropped/Retried/Lost counters.
type LossScheduler struct {
	mu    sync.Mutex
	state lossState
}

// NewLossScheduler builds a scheduler for the model. A disabled model
// yields nil, and a nil scheduler's Outcome reports every message
// delivered — threading an unset configuration through is safe.
func NewLossScheduler(m LossModel) *LossScheduler {
	if !m.Enabled() {
		return nil
	}
	return &LossScheduler{state: lossState{model: m}}
}

// Outcome draws one message's worth of the (from, to) link schedule:
// the number of failed attempts (each one a Counters.Dropped), the
// extra attempts a successful delivery consumed (Counters.Retried),
// and whether the envelope gave up (Counters.Lost — the message must
// not be delivered).
func (s *LossScheduler) Outcome(from, to Addr) (dropped, retried int64, lost bool) {
	if s == nil {
		return 0, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	link := s.state.link(from, to)
	m := s.state.model
	attempt, max := 1, m.attempts()
	for ; attempt <= max; attempt++ {
		if !link.drop(m) {
			break
		}
		dropped++
		if attempt < max {
			link.idle(m, m.retryDelay())
		}
	}
	if attempt > max {
		return dropped, 0, true
	}
	return dropped, int64(attempt - 1), false
}

// drop consumes one attempt from the link's schedule and reports
// whether that attempt is dropped.
func (l *linkLoss) drop(m LossModel) bool {
	if m.Burst <= 1 {
		return l.next() < m.Rate
	}
	// Gilbert–Elliott: attempts drop in the bad state. Transition
	// probabilities are chosen so the mean bad-state sojourn is Burst
	// attempts (bad→good with probability 1/Burst) and the stationary
	// bad-state share — the long-run drop rate — is exactly Rate:
	// π_bad = p_gb/(p_gb+p_bg) = Rate for p_gb = Rate/(Burst·(1−Rate)).
	dropped := l.bad
	l.transition(m)
	return dropped
}
