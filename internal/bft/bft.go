// Package bft is a simplified PBFT-style replicated-state-machine
// baseline. The paper argues (§3) that Byzantine fault tolerance is
// "either suboptimal, or impossible" as a defense against rational
// manipulation: it needs 3f+1 replicas with quadratic message
// complexity per operation, versus the catch-and-punish checker scheme
// whose overhead is a degree factor. Experiment E5 quantifies that gap
// by replaying the same computation through this baseline.
//
// Scope (documented simplification): normal-case operation only — a
// fixed primary, pre-prepare/prepare/commit with 2f+1 quorums, silent
// (crash-faulty) replicas tolerated up to f, no view change. No replica
// equivocates, so prepares and commits carry no digest and every vote
// counts. That is the cheapest possible PBFT, which only makes the
// paper's overhead comparison conservative.
package bft

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Digest is a SHA-256 state or request digest.
type Digest [sha256.Size]byte

func digestOf(data []byte) Digest { return sha256.Sum256(data) }

// StateMachine is the replicated deterministic service.
type StateMachine interface {
	// Apply executes one operation.
	Apply(op []byte)
	// Digest summarizes the current state.
	Digest() Digest
}

// HashChain is the default state machine: a rolling hash of applied
// operations (enough to witness agreement on order and content).
type HashChain struct {
	state Digest
	count int
}

// Apply implements StateMachine.
func (h *HashChain) Apply(op []byte) {
	buf := make([]byte, 0, len(h.state)+len(op))
	buf = append(buf, h.state[:]...)
	buf = append(buf, op...)
	h.state = digestOf(buf)
	h.count++
}

// Digest implements StateMachine.
func (h *HashChain) Digest() Digest { return h.state }

// Message types (normal-case PBFT).

// Request is a client operation submission (client → primary).
type Request struct {
	Data []byte
}

// Size implements sim.Sizer.
func (r Request) Size() int { return 1 + len(r.Data)/8 }

// PrePrepare is the primary's ordering proposal.
type PrePrepare struct {
	View   int
	Seq    int
	Digest Digest
	Data   []byte
}

// Size implements sim.Sizer.
func (p PrePrepare) Size() int { return 3 + len(p.Data)/8 }

// Prepare is a replica's vote for the operation pre-prepared at
// (view, seq).
type Prepare struct {
	View    int
	Seq     int
	Replica int
}

// Size implements sim.Sizer.
func (Prepare) Size() int { return 4 }

// Commit finalizes an ordered operation.
type Commit struct {
	View    int
	Seq     int
	Replica int
}

// Size implements sim.Sizer.
func (Commit) Size() int { return 4 }

// Reply is a replica's execution acknowledgment to the client.
type Reply struct {
	Seq     int
	Replica int
	State   Digest
}

// Size implements sim.Sizer.
func (Reply) Size() int { return 3 }

// slot tracks one sequence number's agreement progress.
type slot struct {
	prePrepared bool
	data        []byte
	prepares    map[int]bool
	commits     map[int]bool
	executed    bool
}

// Replica is one PBFT node.
type Replica struct {
	id       int
	n        int
	f        int
	view     int
	seq      int // primary's next sequence number
	silent   bool
	sm       StateMachine
	slots    map[int]*slot
	executed int // highest contiguously executed seq
	client   sim.Addr
}

var _ sim.Handler = (*Replica)(nil)

// NewReplica constructs replica id of n = 3f+1 total; silent replicas
// model crash faults. client is where replies go.
func NewReplica(id, n, f int, silent bool, sm StateMachine, client sim.Addr) *Replica {
	return &Replica{
		id:     id,
		n:      n,
		f:      f,
		silent: silent,
		sm:     sm,
		slots:  make(map[int]*slot),
		client: client,
	}
}

// Executed returns the number of executed operations.
func (r *Replica) Executed() int { return r.executed }

// StateDigest returns the replica's current state digest.
func (r *Replica) StateDigest() Digest { return r.sm.Digest() }

func (r *Replica) primary() int { return r.view % r.n }

// Init implements sim.Handler.
func (*Replica) Init(sim.Context) {}

// Recv implements sim.Handler.
func (r *Replica) Recv(ctx sim.Context, msg sim.Message) {
	if r.silent {
		return
	}
	switch m := msg.Payload.(type) {
	case Request:
		r.onRequest(ctx, m)
	case PrePrepare:
		r.onPrePrepare(ctx, m)
	case Prepare:
		r.onPrepare(ctx, m)
	case Commit:
		r.onCommit(ctx, m)
	}
}

func (r *Replica) onRequest(ctx sim.Context, req Request) {
	if r.id != r.primary() {
		return // simplification: clients address the primary directly
	}
	r.seq++
	pp := PrePrepare{View: r.view, Seq: r.seq, Digest: digestOf(req.Data), Data: req.Data}
	s := r.slotFor(r.seq)
	s.prePrepared = true
	s.data = req.Data
	for i := 0; i < r.n; i++ {
		if i != r.id {
			ctx.Send(sim.Addr(i), pp)
		}
	}
	// The primary's own prepare is implicit in the pre-prepare.
	r.broadcastPrepare(ctx, pp.View, pp.Seq)
}

func (r *Replica) onPrePrepare(ctx sim.Context, pp PrePrepare) {
	if pp.View != r.view || digestOf(pp.Data) != pp.Digest {
		return
	}
	s := r.slotFor(pp.Seq)
	if s.prePrepared {
		return
	}
	s.prePrepared = true
	s.data = pp.Data
	s.prepares[r.primary()] = true // pre-prepare counts as the primary's prepare
	r.broadcastPrepare(ctx, pp.View, pp.Seq)
	r.maybeCommit(ctx, pp.Seq)
}

func (r *Replica) broadcastPrepare(ctx sim.Context, view, seq int) {
	p := Prepare{View: view, Seq: seq, Replica: r.id}
	s := r.slotFor(seq)
	s.prepares[r.id] = true
	for i := 0; i < r.n; i++ {
		if i != r.id {
			ctx.Send(sim.Addr(i), p)
		}
	}
	r.maybeCommit(ctx, seq)
}

func (r *Replica) onPrepare(ctx sim.Context, p Prepare) {
	if p.View != r.view {
		return
	}
	s := r.slotFor(p.Seq)
	s.prepares[p.Replica] = true
	r.maybeCommit(ctx, p.Seq)
}

// maybeCommit broadcasts COMMIT once the slot is prepared: its
// pre-prepare and 2f+1 prepare votes, the primary's implicit one and
// this replica's own included. Every vote for the slot counts, since
// only silent replicas are modelled (see the package doc).
func (r *Replica) maybeCommit(ctx sim.Context, seq int) {
	s := r.slotFor(seq)
	if !s.prePrepared || s.commits[r.id] || len(s.prepares) < 2*r.f+1 {
		return
	}
	c := Commit{View: r.view, Seq: seq, Replica: r.id}
	s.commits[r.id] = true
	for i := 0; i < r.n; i++ {
		if i != r.id {
			ctx.Send(sim.Addr(i), c)
		}
	}
	r.maybeExecute(ctx)
}

func (r *Replica) onCommit(ctx sim.Context, c Commit) {
	if c.View != r.view {
		return
	}
	s := r.slotFor(c.Seq)
	s.commits[c.Replica] = true
	r.maybeExecute(ctx)
}

// maybeExecute applies committed operations in contiguous order.
func (r *Replica) maybeExecute(ctx sim.Context) {
	for {
		s, ok := r.slots[r.executed+1]
		if !ok || s.executed || !s.prePrepared || len(s.commits) < 2*r.f+1 {
			return
		}
		s.executed = true
		r.sm.Apply(s.data)
		r.executed++
		ctx.Send(r.client, Reply{Seq: r.executed, Replica: r.id, State: r.sm.Digest()})
	}
}

func (r *Replica) slotFor(seq int) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{prepares: make(map[int]bool), commits: make(map[int]bool)}
		r.slots[seq] = s
	}
	return s
}

// client drives a fixed operation sequence, submitting the next
// request after f+1 matching replies for the current one.
type client struct {
	ops     [][]byte
	next    int
	f       int
	primary sim.Addr
	replies map[int]map[int]Digest // seq → replica → state
	done    int
}

var _ sim.Handler = (*client)(nil)

func (c *client) Init(ctx sim.Context) { c.submit(ctx) }

func (c *client) submit(ctx sim.Context) {
	if c.next >= len(c.ops) {
		return
	}
	ctx.Send(c.primary, Request{Data: c.ops[c.next]})
	c.next++
}

func (c *client) Recv(ctx sim.Context, msg sim.Message) {
	rep, ok := msg.Payload.(Reply)
	if !ok {
		return
	}
	if c.replies[rep.Seq] == nil {
		c.replies[rep.Seq] = make(map[int]Digest)
	}
	c.replies[rep.Seq][rep.Replica] = rep.State
	// f+1 matching states complete the operation.
	counts := make(map[Digest]int)
	for _, d := range c.replies[rep.Seq] {
		counts[d]++
	}
	for _, n := range counts {
		if n == c.f+1 && rep.Seq == c.done+1 {
			c.done++
			c.submit(ctx)
		}
	}
}

// Result summarizes a replicated run.
type Result struct {
	// Counters is the message/byte accounting for the whole run.
	Counters sim.Counters
	// Executed is the per-replica executed-op count.
	Executed []int
	// StateDigests is the per-replica final state.
	StateDigests []Digest
	// Completed reports whether the client saw every op through.
	Completed bool
}

// ClientAddr is the simulator address of the driving client.
const ClientAddr sim.Addr = 1 << 21

// Run replicates the given operation sequence across n = 3f+1 replicas
// (silentSet marks crash-faulty ones) and returns message statistics
// and final states.
func Run(f int, silentSet map[int]bool, ops [][]byte, maxSteps int64) (*Result, error) {
	if f < 0 {
		return nil, errors.New("bft: negative f")
	}
	n := 3*f + 1
	if len(silentSet) > f {
		return nil, fmt.Errorf("bft: %d silent replicas exceed f=%d", len(silentSet), f)
	}
	if silentSet[0] {
		return nil, errors.New("bft: primary (replica 0) must be live in the normal-case baseline")
	}
	if maxSteps == 0 {
		maxSteps = 1 << 20
	}
	net := sim.NewNetwork()
	replicas := make([]*Replica, n)
	for i := 0; i < n; i++ {
		replicas[i] = NewReplica(i, n, f, silentSet[i], &HashChain{}, ClientAddr)
		if err := net.Attach(sim.Addr(i), replicas[i]); err != nil {
			return nil, err
		}
	}
	cl := &client{ops: ops, f: f, primary: 0, replies: make(map[int]map[int]Digest)}
	if err := net.Attach(ClientAddr, cl); err != nil {
		return nil, err
	}
	counters, err := net.Run(maxSteps)
	if err != nil {
		return nil, err
	}
	res := &Result{Counters: counters, Completed: cl.done == len(ops)}
	for _, r := range replicas {
		res.Executed = append(res.Executed, r.Executed())
		res.StateDigests = append(res.StateDigests, r.StateDigest())
	}
	return res, nil
}
