// Package faithful implements the paper's extended FPSS specification
// (§4.2–§4.3): every neighbor of a principal acts as its checker,
// principals forward copies of every received update to their
// checkers, checkers mirror the principal's computation without
// emitting outputs, and a trusted bank compares state hashes at phase
// checkpoints — restarting a construction phase on any deviation and
// levying ε-above penalties on execution-phase fraud.
//
// Together with the strategyproofness of the underlying VCG mechanism
// this makes the whole specification faithful (Theorem 1): the
// deviation catalogue of package rational finds profitable deviations
// against plain FPSS but none against this protocol.
package faithful

import (
	"fmt"
	"slices"

	"repro/internal/bank"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/sign"
	"repro/internal/sim"
)

// ForwardCopy is a principal's copy of a received update, forwarded to
// its checkers so they can mirror its computation (Figure 2).
type ForwardCopy struct {
	Principal graph.NodeID
	From      graph.NodeID
	U         fpss.Update
}

// Size implements sim.Sizer.
func (f ForwardCopy) Size() int { return 1 + f.U.Size() }

// StateRequest asks a node for its signed state report (bank →
// nodes at a checkpoint).
type StateRequest struct{}

// Size implements sim.Sizer.
func (StateRequest) Size() int { return 1 }

// StateReply carries the signed report back to the bank, with the
// length the report has in its JSON form.
type StateReply struct {
	Env       sign.Envelope
	JSONBytes int
}

// Size implements sim.Sizer. E4 measures a report by its JSON length,
// not by the compact payload that is signed.
func (r StateReply) Size() int { return 1 + r.JSONBytes/16 }

// Strategy is the faithful protocol's deviation surface. The zero
// value (or nil) is the suggested specification.
type Strategy struct {
	// Protocol carries the construction-phase deviations shared with
	// plain FPSS (cost misreports, table miscomputation, tampered or
	// dropped advertisements).
	Protocol fpss.Strategy
	// ForwardToChecker intercepts an outgoing ForwardCopy; ok=false
	// drops it (manipulations 1 and 3: drop/change forwarded updates).
	// Every checker's call gets the same copy, whose fc.U holds the
	// sender's published tables: this node and the sender's other
	// neighbors keep them as their state. The hook must not write to
	// them; to change one it returns a new table, copied on write as
	// fpss.Strategy describes.
	ForwardToChecker func(to graph.NodeID, fc ForwardCopy) (ForwardCopy, bool)
	// SpoofCopies fabricates forward copies injected at phase-2 start
	// (the "spoof" arm of manipulations 1 and 3). The principal also
	// applies them to its own state for maximal consistency.
	SpoofCopies func(self graph.NodeID) []ForwardCopy
	// ReportState rewrites the node's state report before signing
	// (lying to the bank about one's own or mirrored tables).
	ReportState func(truth bank.StateReport) bank.StateReport
	// ReportPayment misreports DATA4 in the execution phase.
	ReportPayment func(truth fpss.PaymentList) fpss.PaymentList
	// SilentFromPhase2 models a failstop (crash) fault rather than a
	// rational deviation: the node stops participating once phase 2
	// begins, never advertises, forwards or reports. Used by the §5
	// failure-model experiment (E12) — the paper notes that such
	// failures "may cause the system to falsely detect and punish
	// manipulation".
	SilentFromPhase2 bool
}

func (s *Strategy) silentFromPhase2() bool { return s != nil && s.SilentFromPhase2 }

func (s *Strategy) protocol() *fpss.Strategy {
	if s == nil {
		return nil
	}
	return &s.Protocol
}

func (s *Strategy) reportState(truth bank.StateReport) bank.StateReport {
	if s == nil || s.ReportState == nil {
		return truth
	}
	return s.ReportState(truth)
}

// mirror is a checker's clone of one principal's computation state.
// Forwarded copies and the checker's own sends only store the view and
// mark the mirror stale; the tables are derived when read.
type mirror struct {
	principal graph.NodeID
	neighbors []graph.NodeID
	views     map[graph.NodeID]fpss.NeighborView
	stale     bool
	routing   fpss.RoutingTable
	pricing   fpss.PricingTable
}

// refresh re-derives the mirrored tables if a view changed since they
// were last derived. Only the checkpoint (onStateRequest) reads a
// mirror (and the tests' MirrorOf), and ComputeRouting/ComputePricing
// are pure functions of (costs, views) with DATA1 fixed once phase 1
// quiesces, so deriving once there yields the tables that recomputing
// after every view change would have ended with. That holds only while
// stored views are never edited in place, which is why every hook that
// handles a published table copies on write (see fpss.Strategy).
func (m *mirror) refresh(s *fpss.ComputeScratch, costs fpss.CostTable) {
	if !m.stale {
		return
	}
	m.stale = false
	m.routing = fpss.ComputeRouting(s, m.principal, m.neighbors, costs, m.views)
	m.pricing = fpss.ComputePricing(s, m.principal, m.neighbors, costs, m.routing, m.views)
}

// Node is a faithful-protocol participant: an unchanged fpss.Node
// principal plus the checker role for every one of its neighbors.
type Node struct {
	fpss.Node
	// neighborsOf gives the (semi-private) neighbor lists of this
	// node's neighbors — checkers must know who else checks their
	// principal ([CHECK2] validates forward origins against it).
	neighborsOf map[graph.NodeID][]graph.NodeID
	// checkersOf restricts the checker assignment (ablation E11): by
	// default every neighbor of a principal checks it, which is what
	// §4.2 calls "very important"; smaller subsets open escapes.
	checkersOf map[graph.NodeID][]graph.NodeID
	strategy   *Strategy
	signer     *sign.Signer

	mirrors  map[graph.NodeID]*mirror
	lastSent map[graph.NodeID]fpss.Update
	flags    []bank.Flag
}

var _ sim.Handler = (*Node)(nil)

// NewNode constructs a faithful-protocol node. checkersOf may be nil,
// meaning the full assignment (every neighbor checks). Both maps (and
// their slices) are retained as shared read-only views — a deviation
// search builds them once per scenario and hands the same maps to
// every node of every run, so the node must never mutate them and the
// caller must not change them while any node is live.
func NewNode(id graph.NodeID, trueCost graph.Cost, neighborsOf, checkersOf map[graph.NodeID][]graph.NodeID, strategy *Strategy, signer *sign.Signer) *Node {
	cOf := checkersOf
	if cOf == nil {
		cOf = neighborsOf
	}
	return &Node{
		Node:        *fpss.NewNode(id, trueCost, neighborsOf[id], strategy.protocol()),
		neighborsOf: neighborsOf,
		checkersOf:  cOf,
		strategy:    strategy,
		signer:      signer,
		mirrors:     make(map[graph.NodeID]*mirror),
		lastSent:    make(map[graph.NodeID]fpss.Update),
	}
}

// Recv dispatches protocol messages. The cost flood is the principal's
// alone; a failstopped node takes part in it and ignores everything
// after.
func (n *Node) Recv(ctx sim.Context, msg sim.Message) {
	if _, ok := msg.Payload.(fpss.CostAnnounce); ok {
		n.Node.Recv(ctx, msg)
		return
	}
	if n.strategy.silentFromPhase2() {
		return // failstop: crashed at the phase boundary, never reports
	}
	switch m := msg.Payload.(type) {
	case fpss.StartPhase2:
		n.onStartPhase2(ctx)
	case fpss.Update:
		n.onUpdate(ctx, m)
	case ForwardCopy:
		n.onForwardCopy(m)
	case StateRequest:
		n.onStateRequest(ctx)
	}
}

func (n *Node) onStartPhase2(ctx sim.Context) {
	if !n.BeginPhase2() {
		return
	}
	// Become a checker for every neighbor that this node is assigned
	// to check (all of them under the paper's assignment).
	for _, p := range n.neighborsOf[n.ID()] {
		if !contains(n.checkersOf[p], n.ID()) {
			continue
		}
		n.mirrors[p] = &mirror{
			principal: p,
			neighbors: n.neighborsOf[p],
			views:     make(map[graph.NodeID]fpss.NeighborView),
			stale:     true,
		}
	}
	n.Advertise(ctx, true, n.recordSend)
	// Spoof injection (deviation): fabricate forward copies and apply
	// them to own state so the lie is maximally self-consistent.
	if n.strategy == nil || n.strategy.SpoofCopies == nil {
		return
	}
	for _, fc := range n.strategy.SpoofCopies(n.ID()) {
		n.Derivation().SetView(fc.From, fpss.NeighborView{Routing: fc.U.Routing, Pricing: fc.U.Pricing})
		for _, c := range n.checkersOf[n.ID()] {
			ctx.Send(sim.Addr(c), fc)
		}
	}
	n.Advertise(ctx, true, n.recordSend)
}

// onUpdate handles a neighbor principal's advertisement: the principal
// stores the view, forwards copies to this node's own checkers, and
// recomputes. The [CHECK1]-style comparison of the advertisement
// against the mirror happens at the quiescence checkpoint (see
// onStateRequest), where no update is still in flight — comparing
// mid-convergence would false-flag honest transients.
func (n *Node) onUpdate(ctx sim.Context, u fpss.Update) {
	u, ok := n.Accept(u)
	if !ok {
		// Ack withholding: the receiver discards the update and pretends
		// the network lost it — neither stored, forwarded nor recomputed.
		return
	}
	// PRINC: forward a copy to all checkers except the original sender
	// (Figure 2: C1 is on the incoming path and needs no copy). Without
	// a ForwardToChecker hook every checker gets the same copy, boxed
	// on the first send.
	fc := ForwardCopy{Principal: n.ID(), From: u.From, U: u}
	hooked := n.strategy != nil && n.strategy.ForwardToChecker != nil
	var boxed any
	for _, c := range n.checkersOf[n.ID()] {
		if c == u.From {
			continue
		}
		if hooked {
			if out, ok := n.strategy.ForwardToChecker(c, fc); ok {
				ctx.Send(sim.Addr(c), out)
			}
			continue
		}
		if boxed == nil {
			boxed = fc
		}
		ctx.Send(sim.Addr(c), boxed)
	}
	n.Advertise(ctx, false, n.recordSend)
}

// recordSend is the principal's per-send callback: it keeps the
// ground truth of what went to each neighbor and applies it to the
// mirror this node keeps of that neighbor (checkers apply their own
// sends directly; the principal cannot drop them). Sent tables are
// immutable once published, hooked ones included, so the record shares
// them.
func (n *Node) recordSend(to graph.NodeID, u fpss.Update) {
	n.lastSent[to] = u
	if m, ok := n.mirrors[to]; ok {
		m.views[n.ID()] = fpss.NeighborView{Routing: u.Routing, Pricing: u.Pricing}
		m.stale = true
	}
}

// onForwardCopy handles a checker-side forwarded input ([CHECK1]/
// [CHECK2]): validate provenance, then mirror the principal's
// computation.
func (n *Node) onForwardCopy(fc ForwardCopy) {
	m, ok := n.mirrors[fc.Principal]
	if !ok {
		n.flag(fc.Principal, "forward copy from non-neighbor principal")
		return
	}
	if fc.From == n.ID() {
		// The principal claims this node sent it: verify against what
		// was actually sent (the spoof catch — "this spoof will create
		// an inconsistency in the identity tag information").
		last, sent := n.lastSent[fc.Principal]
		if !sent || !last.Routing.Equal(fc.U.Routing) || !last.Pricing.Equal(fc.U.Pricing) {
			n.flag(fc.Principal, "forward copy misattributes this checker")
			return
		}
		return // own sends are already applied to the mirror
	}
	if !contains(m.neighbors, fc.From) {
		// [CHECK2]: "Ignore messages with identity tags that are not
		// checker nodes of the principal."
		n.flag(fc.Principal, fmt.Sprintf("forward copy from %d, not a checker of %d", fc.From, fc.Principal))
		return
	}
	m.views[fc.From] = fpss.NeighborView{Routing: fc.U.Routing, Pricing: fc.U.Pricing}
	m.stale = true
}

func (n *Node) onStateRequest(ctx sim.Context) {
	// [CHECK1]/[CHECK2] at the checkpoint: what each principal last
	// advertised to this checker must equal the faithfully mirrored
	// computation. At quiescence every message has been delivered, so
	// any divergence is a deviation, not a transient. This is where
	// each mirror is derived, once, from the views it has collected.
	// Principals are walked in ascending order, so the flags, and the
	// signed report, are the same in every run.
	d, costs := n.Derivation(), n.CostsView()
	principals := make([]graph.NodeID, 0, len(n.mirrors))
	for p := range n.mirrors {
		principals = append(principals, p)
	}
	slices.Sort(principals)
	truth := bank.StateReport{
		Node:        n.ID(),
		CostsHash:   costs.HashCosts(),
		RoutingHash: d.Routing().HashRouting(),
		PricingHash: d.Pricing().HashPricing(),
		Mirrors:     make(map[graph.NodeID]bank.MirrorReport, len(n.mirrors)),
	}
	for _, p := range principals {
		m := n.mirrors[p]
		m.refresh(d.Scratch(), costs)
		if v, ok := d.View(p); !ok {
			n.flag(p, "principal never advertised")
		} else if !v.Routing.Equal(m.routing) || !v.Pricing.Equal(m.pricing) {
			n.flag(p, "advertisement diverges from checker mirror")
		}
		truth.Mirrors[p] = bank.MirrorReport{
			RoutingHash: m.routing.HashRouting(),
			PricingHash: m.pricing.HashPricing(),
		}
	}
	truth.Flags = append([]bank.Flag(nil), n.flags...)
	env, jsonBytes := bank.EncodeReport(n.signer, n.strategy.reportState(truth))
	ctx.Send(fpss.BankAddr, StateReply{Env: env, JSONBytes: jsonBytes})
}

func (n *Node) flag(principal graph.NodeID, reason string) {
	n.flags = append(n.flags, bank.Flag{Reporter: n.ID(), Principal: principal, Reason: reason})
}

func contains(ids []graph.NodeID, id graph.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
