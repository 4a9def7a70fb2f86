package sim

// This file is the crash-fault failure axis at the simulator level: a
// seeded, positional crash/restart injector for infrastructure
// endpoints. Where loss.go models links that drop messages, this file
// models endpoints that go dark — a shard or coordinator process
// crashing mid-protocol and (usually) coming back. The paper's network
// is reliable and its bank is a singleton obedient oracle; once
// checkpointing becomes a distributed two-phase commit
// (internal/settle), the bank's own components acquire a failure model,
// and the layers above need it to be a declarative, deterministic
// property of a run — exactly like LossModel — so that checker-side
// attribution ("a shard crashed" vs "a node deviated") can be tested
// with zero false positives.
//
// Crashes are positional, mirroring the loss model's per-link streams:
// a Crash entry fires after its address has *delivered* a fixed number
// of messages, so the same model crashes at the same protocol point in
// every run of the same scenario — "crash after the first vote" is a
// stable, replayable event even though it is expressed as a message
// count. While an address is down, deliveries to it are dropped and
// counted (Counters.CrashDropped); a scheduled restart brings it back
// and, if the handler implements Recoverer, gives it a Recover call to
// rebuild volatile state from its own durable log.

// Crash schedules one crash of one address. Entries for the same
// address arm in schedule order: the second entry counts deliveries
// from the restart onwards, which is how a crash-during-recovery case
// is expressed.
type Crash struct {
	// Addr is the endpoint to crash.
	Addr Addr
	// AfterDeliveries arms the crash after this many further messages
	// have been delivered to Addr (1 = crash right after the next
	// delivery). Values < 1 behave as 1: a crash must observe at least
	// one delivery, so schedules stay positional.
	AfterDeliveries int64
	// RestartDelay is the downtime in ticks before the endpoint
	// restarts; values < 0 mean it never comes back. A restart is a
	// scheduled event: the run does not quiesce while one is pending.
	RestartDelay int64
}

// FaultModel configures seeded endpoint crashes. The zero value means
// no faults — byte-identical behavior to a network without the model
// installed.
type FaultModel struct {
	// Schedule lists the crashes in arming order.
	Schedule []Crash
}

// Enabled reports whether the model actually crashes anything.
func (m FaultModel) Enabled() bool { return len(m.Schedule) > 0 }

// Recoverer is implemented by handlers that rebuild volatile state
// after a crash-restart. Recover runs at restart time, before any
// further delivery to the handler; implementations typically replay a
// write-ahead log and re-contact their coordinator about in-doubt
// work. Handlers without Recover restart with whatever in-memory state
// they had — the model's way of expressing an amnesiac process.
type Recoverer interface {
	Recover(ctx Context)
}

// WithFaults installs a crash schedule. A zero (disabled) model is a
// no-op, so threading an unset configuration through is always safe.
func WithFaults(m FaultModel) Option {
	return func(n *Network) { n.SetFaults(m) }
}

// SetFaults installs (or, with a disabled model, removes) the crash
// schedule on an existing network, mirroring SetLoss. Reset clears it,
// so pooled networks cannot replay a previous scenario's crashes.
func (n *Network) SetFaults(m FaultModel) { n.faults = newFaultSchedule(m) }

// Down reports whether addr is currently crashed.
func (n *Network) Down(addr Addr) bool { return n.faults.isDown(addr) }

// faultSchedule is a FaultModel's runtime state: per-address pending
// crash entries (consumed in order), delivery counts since the last
// arm point, and the set of currently-down addresses. A nil schedule
// means no faults.
type faultSchedule struct {
	pending map[Addr][]Crash
	counts  map[Addr]int64
	down    map[Addr]bool
}

// newFaultSchedule builds the runtime schedule for m. A disabled model
// yields nil.
func newFaultSchedule(m FaultModel) *faultSchedule {
	if !m.Enabled() {
		return nil
	}
	fs := &faultSchedule{pending: make(map[Addr][]Crash), counts: make(map[Addr]int64), down: make(map[Addr]bool)}
	for _, c := range m.Schedule {
		if c.AfterDeliveries < 1 {
			c.AfterDeliveries = 1
		}
		fs.pending[c.Addr] = append(fs.pending[c.Addr], c)
	}
	return fs
}

// isDown reports whether addr is currently crashed.
func (fs *faultSchedule) isDown(addr Addr) bool {
	return fs != nil && fs.down[addr]
}

// observeDelivery records one delivery to addr and reports whether it
// armed a crash; if so the entry is consumed, addr goes down, and the
// entry is returned so the caller can schedule its restart.
func (fs *faultSchedule) observeDelivery(addr Addr) (Crash, bool) {
	if fs == nil {
		return Crash{}, false
	}
	q := fs.pending[addr]
	if len(q) == 0 {
		return Crash{}, false
	}
	fs.counts[addr]++
	if fs.counts[addr] < q[0].AfterDeliveries {
		return Crash{}, false
	}
	c := q[0]
	fs.pending[addr] = q[1:]
	fs.counts[addr] = 0 // the next entry counts from here (or from restart)
	fs.down[addr] = true
	return c, true
}

// restore brings a crashed addr back up and reports whether it was
// down; false means a stale restart (e.g. the schedule crashed the
// address again meanwhile, or it was never down).
func (fs *faultSchedule) restore(addr Addr) bool {
	if !fs.isDown(addr) {
		return false
	}
	delete(fs.down, addr)
	return true
}

// restartMarker is the internal payload that brings a crashed address
// back up. It rides the ordinary calendar queue (so restarts interleave
// deterministically with traffic) but is intercepted by the drain loop
// before normal delivery.
type restartMarker struct{}

// restore brings a crashed address back up and, if its handler
// implements Recoverer, runs the recovery hook before any further
// delivery. Called by the drain loop on a restartMarker.
func (n *Network) restore(addr Addr) {
	if !n.faults.restore(addr) {
		return // stale marker
	}
	n.restarts++
	if h, ctx := n.handler(addr); h != nil {
		if r, ok := h.(Recoverer); ok {
			r.Recover(ctx)
		}
	}
}
