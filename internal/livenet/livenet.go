// Package livenet runs the same sim.Handler protocol nodes over real
// goroutines and mailboxes instead of the deterministic event
// simulator. Message interleavings are then scheduler-dependent — the
// asynchronous network model the paper (via Griffin–Wilfong) actually
// assumes.
//
// Its purpose in the reproduction is evidence of order-independence:
// the distributed FPSS computation must converge to the same unique
// fixpoint (the centralized solution) under *any* delivery order, not
// just the simulator's canonical one. The livenet tests run the
// protocol under live concurrency and compare tables against
// ComputeCentral, and internal/live keeps a resident livenet network
// behind its serving boundary.
//
// Quiescence is detected with a Dijkstra–Scholten-style in-flight
// counter: every enqueued message holds a credit that is released only
// after the receiving handler finishes processing it (including any
// sends that processing performed), so the counter can reach zero only
// at true quiescence.
//
// The loss axis mirrors the simulator's: SetLoss installs the same
// seeded per-link drop schedules, resolved at send time through a
// sim.LossScheduler, so a live run and a simulated run with the same
// per-link send order report identical Dropped/Retried/Lost.
package livenet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// Counters is the simulator's traffic accounting, shared wholesale:
// the live network maintains its traffic, loss and per-node fields so
// the loss axis reports identically live and simulated.
type Counters = sim.Counters

// Net executes handlers concurrently, one goroutine per address.
type Net struct {
	mu       sync.Mutex
	cond     *sync.Cond
	handlers map[sim.Addr]sim.Handler
	boxes    map[sim.Addr]*mailbox
	pending  int64 // in-flight credits (messages + unstarted inits)
	counters Counters
	loss     *sim.LossScheduler
	started  bool
	closed   bool
	wg       sync.WaitGroup
}

type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []sim.Message
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) push(msg sim.Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queue = append(m.queue, msg)
	m.cond.Signal()
}

func (m *mailbox) pop() (sim.Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.closed {
		// Closed wins even with queued messages: Shutdown must stop a
		// worker whose queue never drains (e.g. a self-spinning node).
		return sim.Message{}, false
	}
	msg := m.queue[0]
	m.queue = m.queue[1:]
	return msg, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// New builds a live network over the given handlers.
func New(handlers map[sim.Addr]sim.Handler) *Net {
	n := &Net{
		handlers: make(map[sim.Addr]sim.Handler, len(handlers)),
		boxes:    make(map[sim.Addr]*mailbox, len(handlers)),
	}
	n.cond = sync.NewCond(&n.mu)
	for a, h := range handlers {
		n.handlers[a] = h
		n.boxes[a] = newMailbox()
	}
	return n
}

// SetLoss installs a seeded per-link drop model, resolved at send time
// exactly as the simulator resolves it (same schedule streams, same
// retry envelope, same counters). A disabled model removes it. Must be
// called before Start.
func (n *Net) SetLoss(m sim.LossModel) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loss = sim.NewLossScheduler(m)
}

// liveContext implements sim.Context for a worker goroutine.
type liveContext struct {
	net  *Net
	self sim.Addr
}

var _ sim.Context = (*liveContext)(nil)

func (c *liveContext) Self() sim.Addr { return c.self }

// Now returns wall-clock nanoseconds — live runs have no logical time.
func (c *liveContext) Now() int64 { return time.Now().UnixNano() }

func (c *liveContext) Send(to sim.Addr, payload any) {
	c.net.send(c.self, to, payload, false)
}

// send is the shared body of handler sends (subject to the loss model)
// and Inject (out-of-band control traffic, exempt — mirroring the
// simulator's enqueue/Inject split).
func (n *Net) send(from, to sim.Addr, payload any, reliable bool) {
	box, ok := n.boxes[to]
	size := int64(1)
	if s, isSized := payload.(sim.Sizer); isSized {
		size = int64(s.Size())
	}
	n.mu.Lock()
	n.counters.Sent++
	n.counters.Bytes += size
	if n.counters.PerNodeOut == nil {
		n.counters.PerNodeOut = make(map[sim.Addr]int64)
	}
	n.counters.PerNodeOut[from]++
	// Self-sends are a handler's private timers, exempt from loss like
	// Inject — the same carve-outs the simulator's enqueue makes.
	if n.loss != nil && !reliable && from != to {
		dropped, retried, lost := n.loss.Outcome(from, to)
		n.counters.Dropped += dropped
		if lost {
			n.counters.Lost++
			n.mu.Unlock()
			return // permanent loss: the envelope gave up
		}
		n.counters.Retried += retried
	}
	if ok {
		n.pending++
	}
	n.mu.Unlock()
	if !ok {
		return // unknown destination: discarded, like the simulator
	}
	box.push(sim.Message{From: from, To: to, Payload: payload})
}

// release returns one in-flight credit; at zero it wakes waiters.
func (n *Net) release() {
	n.mu.Lock()
	n.pending--
	if n.pending == 0 {
		n.cond.Broadcast()
	}
	n.mu.Unlock()
}

// countDelivery records one delivery to addr in the shared counters.
func (n *Net) countDelivery(addr sim.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.counters.Steps++
	n.counters.Delivered++
	if n.counters.PerNodeIn == nil {
		n.counters.PerNodeIn = make(map[sim.Addr]int64)
	}
	n.counters.PerNodeIn[addr]++
}

// Start launches one worker per handler. Each worker runs Init first
// (holding a start credit so quiescence cannot be declared before all
// inits finish), then consumes its mailbox.
func (n *Net) Start() error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return errors.New("livenet: already started")
	}
	n.started = true
	addrs := make([]sim.Addr, 0, len(n.handlers))
	for a := range n.handlers {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	n.pending += int64(len(addrs)) // one start credit per worker
	n.mu.Unlock()

	for _, a := range addrs {
		addr := a
		h := n.handlers[addr]
		box := n.boxes[addr]
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ctx := &liveContext{net: n, self: addr}
			h.Init(ctx)
			n.release() // start credit
			for {
				msg, ok := box.pop()
				if !ok {
					return
				}
				n.countDelivery(addr)
				h.Recv(ctx, msg)
				n.release() // message credit, after processing completes
			}
		}()
	}
	return nil
}

// Inject enqueues an external message (e.g. a phase-change signal).
// Like the simulator's Inject it is out-of-band control traffic,
// exempt from the loss model.
func (n *Net) Inject(from, to sim.Addr, payload any) {
	n.send(from, to, payload, true)
}

// ErrTimeout is returned when quiescence is not reached in time.
var ErrTimeout = errors.New("livenet: quiescence timeout")

// WaitQuiescence blocks until no message is in flight or the timeout
// elapses. Handlers are guaranteed idle when it returns nil.
func (n *Net) WaitQuiescence(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer timer.Stop()

	n.mu.Lock()
	defer n.mu.Unlock()
	for n.pending != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w (pending %d)", ErrTimeout, n.pending)
		}
		n.cond.Wait()
	}
	return nil
}

// Shutdown stops all workers and waits for them to exit. Handler state
// may be read safely afterwards (the WaitGroup provides the
// happens-before edge).
func (n *Net) Shutdown() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	n.mu.Unlock()
	for _, b := range n.boxes {
		b.close()
	}
	n.wg.Wait()
}

// Counters returns an isolated snapshot of traffic statistics.
func (n *Net) Counters() Counters {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.counters
	out.PerNodeIn = make(map[sim.Addr]int64, len(n.counters.PerNodeIn))
	for a, v := range n.counters.PerNodeIn {
		out.PerNodeIn[a] = v
	}
	out.PerNodeOut = make(map[sim.Addr]int64, len(n.counters.PerNodeOut))
	for a, v := range n.counters.PerNodeOut {
		out.PerNodeOut[a] = v
	}
	return out
}
