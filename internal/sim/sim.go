// Package sim is a deterministic discrete-event network simulator.
//
// The paper's model (following FPSS and Griffin–Wilfong) is a static,
// reliable network of nodes that exchange messages asynchronously and
// eventually reach quiescence; the bank's checkpoints fire "at a
// network quiescence point" (§4.3 [BANK1]). The simulator reproduces
// exactly that: messages are delivered in deterministic order (by
// delivery time, then send sequence), a run proceeds until no messages
// remain in flight, and counters expose the message/step complexity
// that experiments E4/E5/E9 report.
//
// Deviating (rational) behavior lives in the node handlers, not in the
// network: the network itself is obedient, as assumed by the paper.
//
// The event loop is allocation-lean: handlers are a dense slice
// indexed by address (with a map overflow for sparse addresses like
// the bank's), the event queue is a calendar queue whose time buckets
// link through one arena of cells (push and pop are O(1) at the delays
// every protocol run uses), and each handler gets one reusable Context
// for the network's lifetime. A Network can
// also be Reset and reused across runs — deviation searches play
// hundreds of protocol runs back to back, and rebuilding the network
// from pooled storage keeps that loop off the allocator (see
// AcquireNetwork / Release).
package sim

import (
	"errors"
	"fmt"
	"sync"
)

// Addr identifies an endpoint in the simulated network.
type Addr int

// maxDenseAddr bounds the dense (slice-indexed) address range.
// Addresses in [0, maxDenseAddr) get O(1) indexed handlers; anything
// else (negative, or sparse high addresses like the fpss bank at
// 1<<20) falls back to a small map.
const maxDenseAddr = 1 << 12

// Message is a payload in flight between two endpoints.
type Message struct {
	From    Addr
	To      Addr
	Payload any
}

// Context is the API a handler uses during Init/Recv: its own address
// and a way to send. It carries no clock, so a handler reacts only to
// the messages it receives. The Context passed to a handler is only
// valid for the duration of the call; handlers must not retain it.
type Context interface {
	// Self returns the handler's own address.
	Self() Addr
	// Send enqueues a message to the given address.
	Send(to Addr, payload any)
}

// Handler is a simulated endpoint. Implementations must be
// deterministic: same inputs in the same order, same outputs.
type Handler interface {
	// Init runs once before delivery starts; the handler may send its
	// initial messages through ctx.
	Init(ctx Context)
	// Recv handles one delivered message; the handler may send
	// follow-up messages through ctx.
	Recv(ctx Context, msg Message)
}

// Sizer optionally reports a payload's abstract size (bytes) for
// traffic accounting. Payloads that do not implement Sizer count as 1.
type Sizer interface{ Size() int }

// Counters aggregates traffic statistics for a run. It is a plain
// value: what Run, Resume and Counters return is a copy that later
// traffic does not change.
type Counters struct {
	Sent         int64 // messages submitted via Send (including lost ones)
	Delivered    int64 // messages handed to Recv
	Dropped      int64 // failed loss-model attempts
	Retried      int64 // extra delivery attempts consumed by the loss envelope
	Lost         int64 // messages permanently lost (every attempt dropped)
	Crashes      int64 // endpoint crashes fired by the fault model
	Restarts     int64 // crashed endpoints brought back up
	CrashDropped int64 // deliveries dropped because the destination was down
	Bytes        int64 // total abstract payload size sent
	Steps        int64 // delivery steps executed
}

// Add accumulates another snapshot into c — benchtab's suite profile
// sums one snapshot per epoch of a churn timeline into the
// whole-timeline message-overhead figure.
func (c *Counters) Add(o Counters) {
	c.Sent += o.Sent
	c.Delivered += o.Delivered
	c.Dropped += o.Dropped
	c.Retried += o.Retried
	c.Lost += o.Lost
	c.Crashes += o.Crashes
	c.Restarts += o.Restarts
	c.CrashDropped += o.CrashDropped
	c.Bytes += o.Bytes
	c.Steps += o.Steps
}

// Network is a deterministic event-driven message network.
type Network struct {
	// Dense handler table for addresses in [0, maxDenseAddr): handlers
	// and their reusable contexts, indexed by address. sparse holds
	// everything else.
	dense     []Handler
	denseCtx  []netContext
	sparse    map[Addr]Handler
	sparseCtx map[Addr]*netContext

	queue  calendar
	now    int64
	delay  func(from, to Addr) int64
	loss   *lossState
	faults *faultSchedule

	sent, delivered, dropped, retried, lost, bytes, steps int64
	crashes, restarts, crashDropped                       int64

	running bool
}

// Option configures a Network.
type Option func(*Network)

// WithDelay sets a deterministic per-link delay function (default: 1).
// Delays are ticks and must be ≥ 0: a send with a negative delay
// panics, because it would deliver before the current time.
func WithDelay(d func(from, to Addr) int64) Option {
	return func(n *Network) { n.delay = d }
}

// NewNetwork returns an empty network.
func NewNetwork(opts ...Option) *Network {
	n := &Network{}
	for _, o := range opts {
		o(n)
	}
	return n
}

// netPool recycles Networks (and their handler tables and event-queue
// backing) across runs; see AcquireNetwork.
var netPool = sync.Pool{New: func() any { return &Network{} }}

// AcquireNetwork returns an empty network from the package pool,
// configured with opts. It is equivalent to NewNetwork but reuses
// storage from previously Released networks — the fast path for
// deviation searches that rebuild a network per (node, deviation) run.
func AcquireNetwork(opts ...Option) *Network {
	n := netPool.Get().(*Network)
	for _, o := range opts {
		o(n)
	}
	return n
}

// Release resets n and returns it to the package pool. The caller must
// not use n (or any Context it handed out) afterwards.
func (n *Network) Release() {
	n.Reset()
	netPool.Put(n)
}

// Reset returns the network to its post-NewNetwork state — no
// handlers, no queued events, zeroed counters and cleared hooks —
// while keeping allocated storage for reuse.
func (n *Network) Reset() {
	clear(n.dense)
	clear(n.denseCtx)
	clear(n.sparse)
	clear(n.sparseCtx)
	// A non-quiescent run (budget exhausted) leaves undelivered events
	// whose payloads must not stay reachable through the pooled arena.
	n.queue.reset()
	n.now = 0
	// Delay hooks, loss schedules and crash schedules are per-scenario
	// state: a pooled network re-acquired for a clean run must never
	// replay a previous scenario's delays, drops or crashes.
	n.delay, n.loss, n.faults = nil, nil, nil
	n.sent, n.delivered, n.dropped, n.retried, n.lost, n.bytes, n.steps = 0, 0, 0, 0, 0, 0, 0
	n.crashes, n.restarts, n.crashDropped = 0, 0, 0
	n.running = false
}

// ErrDuplicateAddr is returned when an address is attached twice.
var ErrDuplicateAddr = errors.New("sim: duplicate address")

// Attach registers a handler at addr.
func (n *Network) Attach(addr Addr, h Handler) error {
	if addr >= 0 && addr < maxDenseAddr {
		if int(addr) < len(n.dense) && n.dense[addr] != nil {
			return fmt.Errorf("%w: %d", ErrDuplicateAddr, addr)
		}
		for int(addr) >= len(n.dense) {
			n.dense = append(n.dense, nil)
			n.denseCtx = append(n.denseCtx, netContext{})
		}
		n.dense[addr] = h
		n.denseCtx[addr] = netContext{net: n, self: addr}
		return nil
	}
	if _, ok := n.sparse[addr]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateAddr, addr)
	}
	if n.sparse == nil {
		n.sparse = make(map[Addr]Handler)
		n.sparseCtx = make(map[Addr]*netContext)
	}
	n.sparse[addr] = h
	n.sparseCtx[addr] = &netContext{net: n, self: addr}
	return nil
}

// handler returns the handler and reusable context at addr, or nil.
func (n *Network) handler(addr Addr) (Handler, *netContext) {
	if addr >= 0 && int(addr) < len(n.dense) {
		if h := n.dense[addr]; h != nil {
			return h, &n.denseCtx[addr]
		}
		return nil, nil
	}
	if h, ok := n.sparse[addr]; ok {
		return h, n.sparseCtx[addr]
	}
	return nil, nil
}

// netContext is the event-simulator Context. Sends to unknown
// addresses are counted but silently discarded at delivery, matching a
// static network with a fixed membership. One context per handler is
// created at Attach and reused for every Init/Recv call.
type netContext struct {
	net  *Network
	self Addr
}

var _ Context = (*netContext)(nil)

func (c *netContext) Self() Addr { return c.self }
func (c *netContext) Send(to Addr, payload any) {
	c.net.send(c.self, to, payload)
}

func (n *Network) send(from, to Addr, payload any) {
	n.enqueue(from, to, payload, false)
}

// enqueue is the shared body of send (node traffic, subject to every
// fault hook) and Inject (out-of-band control traffic, exempt from the
// loss model — see Inject).
func (n *Network) enqueue(from, to Addr, payload any, reliable bool) {
	n.sent++
	size := int64(1)
	if s, ok := payload.(Sizer); ok {
		size = int64(s.Size())
	}
	n.bytes += size
	at := n.now + 1
	if n.delay != nil {
		d := n.delay(from, to)
		if d < 0 {
			panic(fmt.Sprintf("sim: negative delay %d on link %d→%d", d, from, to))
		}
		at = n.now + d
	}
	// Self-sends are a handler's private timers (the settle engine's
	// retransmission quanta), not link traffic — exempt from loss like
	// Inject. No current handler self-sends real protocol payloads, so
	// this does not change any pinned loss counter.
	if n.loss != nil && !reliable && from != to {
		link := n.loss.link(from, to)
		attempt, max := 1, n.loss.model.attempts()
		for ; attempt <= max; attempt++ {
			if !link.drop(n.loss.model) {
				break
			}
			n.dropped++
			if attempt < max {
				// The retransmission timeout separates attempts: the
				// Gilbert–Elliott channel evolves through it, so a
				// burst that swallowed this attempt has usually
				// cleared by the next one (decorrelated retries are
				// what keeps the ~Rate^Attempts permanent-loss
				// analysis honest for bursty models too).
				link.idle(n.loss.model, n.loss.model.retryDelay())
			}
		}
		if attempt > max {
			n.lost++ // permanent loss: the envelope gave up
			return
		}
		n.retried += int64(attempt - 1)
		at += int64(attempt-1) * n.loss.model.retryDelay()
		// Per-link FIFO: a retried message must not be overtaken by —
		// or overtake — the link's other traffic (see LossModel).
		if at < link.lastAt {
			at = link.lastAt
		}
		link.lastAt = at
	}
	n.queue.push(at, Message{From: from, To: to, Payload: payload})
}

// ErrBudgetExhausted is returned by Run when maxSteps deliveries
// happen without reaching quiescence (a non-terminating protocol).
var ErrBudgetExhausted = errors.New("sim: step budget exhausted before quiescence")

// Run initializes every handler (in address order) and delivers
// messages until quiescence or until maxSteps deliveries have
// occurred. It returns the counters for the run.
func (n *Network) Run(maxSteps int64) (Counters, error) {
	if n.running {
		return n.snapshot(), errors.New("sim: Run re-entered")
	}
	n.running = true
	defer func() { n.running = false }()

	// Init in ascending address order: sparse negatives, the dense
	// range, then sparse high addresses.
	sparse := sortedAddrs(n.sparse)
	for _, a := range sparse {
		if a < 0 {
			n.sparse[a].Init(n.sparseCtx[a])
		}
	}
	for a := range n.dense {
		if h := n.dense[a]; h != nil {
			h.Init(&n.denseCtx[a])
		}
	}
	for _, a := range sparse {
		if a >= 0 {
			n.sparse[a].Init(n.sparseCtx[a])
		}
	}
	return n.drain(maxSteps)
}

// Resume continues delivering after external injection (see Inject)
// without re-running Init. Each call has its own step budget: a Resume
// after an exhausted Run (or Resume) delivers up to maxSteps further
// messages — the budget bounds one drain, not the network's lifetime.
func (n *Network) Resume(maxSteps int64) (Counters, error) {
	return n.drain(maxSteps)
}

func (n *Network) drain(maxSteps int64) (Counters, error) {
	var steps int64
	for n.queue.n > 0 {
		if steps >= maxSteps {
			return n.snapshot(), fmt.Errorf("%w (%d steps)", ErrBudgetExhausted, steps)
		}
		at, msg := n.queue.pop()
		n.now = at
		steps++
		n.steps++
		if _, ok := msg.Payload.(restartMarker); ok {
			n.restore(msg.To)
			continue // not a delivery: the endpoint coming back up
		}
		if n.Down(msg.To) {
			n.crashDropped++
			continue // destination is crashed
		}
		h, ctx := n.handler(msg.To)
		if h == nil {
			continue // discarded: unknown destination
		}
		n.delivered++
		h.Recv(ctx, msg)
		if n.faults != nil {
			if c, fired := n.faults.observeDelivery(msg.To); fired {
				n.crashes++
				if c.RestartDelay >= 0 {
					n.queue.push(n.now+c.RestartDelay, Message{From: msg.To, To: msg.To, Payload: restartMarker{}})
				}
			}
		}
	}
	return n.snapshot(), nil
}

// Inject enqueues an external message (e.g. a bank request) from a
// synthetic source. Use Resume afterwards.
//
// Injected messages are out-of-band control traffic — a trusted
// coordinator's phase transitions and checkpoint requests, not
// node-to-node links — so they are exempt from the loss model (the
// delay hook still applies). Lossy phase-boundary control would
// let a retried StartPhase2 arrive after a neighbor's first phase-2
// message, turning an experimenter's control plane into spurious
// protocol reordering.
func (n *Network) Inject(from, to Addr, payload any) {
	n.enqueue(from, to, payload, true)
}

// Counters returns a copy of the current counters.
func (n *Network) Counters() Counters { return n.snapshot() }

// snapshot copies the internal counters into a Counters value.
func (n *Network) snapshot() Counters {
	return Counters{
		Sent:         n.sent,
		Delivered:    n.delivered,
		Dropped:      n.dropped,
		Retried:      n.retried,
		Lost:         n.lost,
		Crashes:      n.crashes,
		Restarts:     n.restarts,
		CrashDropped: n.crashDropped,
		Bytes:        n.bytes,
		Steps:        n.steps,
	}
}

// sortedAddrs returns m's keys ascending (insertion sort: the sparse
// table holds a handful of addresses, typically just the bank).
func sortedAddrs(m map[Addr]Handler) []Addr {
	if len(m) == 0 {
		return nil
	}
	out := make([]Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
