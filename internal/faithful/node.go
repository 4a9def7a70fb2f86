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
	"cmp"
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
	// (lying to the bank about one's own or mirrored tables). Mirrors
	// left out of ascending principal order sign a payload that the
	// bank rejects as malformed, and so reads as a missing report.
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

// mirror is a checker's clone of one principal's computation state:
// the views the principal computes from. Forwarded copies and the
// checker's own sends only store a view; the checkpoint checks the
// principal's advertisement against them (see mirrorMemo.check).
type mirror struct {
	principal graph.NodeID
	neighbors []graph.NodeID
	// views[i] is the latest view of neighbors[i]: a forwarded copy, or
	// at self what this checker last sent the principal (sent says
	// whether it has).
	views []fpss.NeighborView
	self  int
	sent  bool
}

// mirrorMemo is a run's checkpoint memo, kept by principal: the checks
// of its advertisements and the hashes of its tables. In an honest run
// every checker of a principal holds the same published tables as its
// views and was sent the same advertisement, so one check serves them
// all, and the mirror hashes they report are the hashes of the tables
// the principal reports. A memo is single-threaded, like the run that
// owns it.
type mirrorMemo struct {
	principals []principalMemo
}

// principalMemo is what a run's checkpoint memoizes for one principal.
type principalMemo struct {
	checks []mirrorCheck
	// tables are the principal's tables this run hashed last, if hashed,
	// and routingHash and pricingHash their hashes.
	tables                   fpss.NeighborView
	hashed                   bool
	routingHash, pricingHash fpss.Hash
}

// mirrorCheck is a checkpoint verdict on one advertisement of a
// principal over one checker's DATA1 and views, with the mirror hashes
// its checkers report: those of the tables ComputeTables derives from
// the views. costsHash is the hash of that DATA1, the checker's own
// report of it.
type mirrorCheck struct {
	costsHash  fpss.Hash
	views      []fpss.NeighborView
	advert     fpss.NeighborView
	advertised bool
	// matches reports whether the advertisement is Equal to the tables
	// ComputeTables derives from the views.
	matches                  bool
	routingHash, pricingHash fpss.Hash
}

// check returns the verdict on m's principal's advertisement to a
// checker with DATA1 costs, whose hash is costsHash (advertised is
// false when the principal never sent the checker one), checking with
// s unless a checker of the principal has already checked the same
// advertisement over the same DATA1 and views. Checks are keyed by the
// DATA1 hash, the bank's own test of a common DATA1, and by the
// identities of the viewed and advertised tables: published tables
// are never edited, so the same tables are the same content, and the
// memo keeps them alive, so no other table can take their place.
//
// Only the checkpoint checks a mirror, and ComputeTables is a pure
// function of (costs, views) with DATA1 fixed once phase 1 quiesces,
// so checking once there gives the verdict that recomputing after
// every view change would have ended with. That holds only while
// stored views are never edited in place, which is why every hook that
// handles a published table copies on write (see fpss.Strategy).
//
// An advertisement that fpss.VerifyTables accepts is what
// ComputeTables would derive, so its hashes are the mirror's, and a
// faithful principal's checkers derive no tables. Otherwise, or when
// the principal never advertised, the mirror is derived whole to hash
// it, once per set of views: the derived tables are carved from s and
// recycled with its owner's (see Result.Release).
func (mm *mirrorMemo) check(s *fpss.ComputeScratch, m *mirror, costs fpss.CostTable, costsHash fpss.Hash, advert fpss.NeighborView, advertised bool) mirrorCheck {
	p := m.principal
	pm := &mm.principals[p]
	var same *mirrorCheck // a check over the same views, hashed already
	for i := range pm.checks {
		c := &pm.checks[i]
		if c.costsHash != costsHash || !slices.EqualFunc(c.views, m.views, fpss.NeighborView.Same) {
			continue
		}
		if c.advertised == advertised && c.advert.Same(advert) {
			return *c
		}
		same = c
	}
	c := mirrorCheck{costsHash: costsHash, views: slices.Clone(m.views), advert: advert, advertised: advertised}
	c.matches = advertised && fpss.VerifyTables(s, p, m.neighbors, costs, m.views, advert.Routing, advert.Pricing)
	switch {
	case same != nil:
		c.routingHash, c.pricingHash = same.routingHash, same.pricingHash
	case c.matches:
		c.routingHash, c.pricingHash = mm.hash(p, advert)
	default:
		routing, pricing := fpss.ComputeTables(s, p, m.neighbors, costs, m.views)
		c.routingHash, c.pricingHash = routing.HashRouting(), pricing.HashPricing()
	}
	pm.checks = append(pm.checks, c)
	return c
}

// hash returns the hashes of principal p's tables t, hashing them
// unless they are the tables of p this run hashed last. A principal's
// own report and its checkers' matching mirrors hash the same
// published tables, so each is hashed once.
func (mm *mirrorMemo) hash(p graph.NodeID, t fpss.NeighborView) (routing, pricing fpss.Hash) {
	pm := &mm.principals[p]
	if !pm.hashed || !pm.tables.Same(t) {
		pm.tables, pm.hashed = t, true
		pm.routingHash, pm.pricingHash = t.Routing.HashRouting(), t.Pricing.HashPricing()
	}
	return pm.routingHash, pm.pricingHash
}

// testHookMirrorCheck, when set, sees every mirror check of a
// checkpoint: the checker, its mirror and the verdict it reports.
var testHookMirrorCheck func(checker *Node, m *mirror, c mirrorCheck)

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
	memo       *mirrorMemo

	// mirrors are the node's mirrors of the principals it checks, in
	// ascending principal order, their views carved from one array.
	mirrors []mirror
	flags   []bank.Flag
}

var _ sim.Handler = (*Node)(nil)

// newNode constructs a faithful-protocol node whose mirrors share the
// run's memo. Both maps (and their slices) are retained as shared
// read-only views — Run builds them once per run (see Topology) and
// hands the same maps to every node and to the bank, so the node must
// never mutate them and the caller must not change them while any node
// is live.
func newNode(id graph.NodeID, trueCost graph.Cost, neighborsOf, checkersOf map[graph.NodeID][]graph.NodeID, strategy *Strategy, signer *sign.Signer, memo *mirrorMemo) *Node {
	return &Node{
		Node:        *fpss.NewNode(id, trueCost, neighborsOf[id], strategy.protocol()),
		neighborsOf: neighborsOf,
		checkersOf:  checkersOf,
		strategy:    strategy,
		signer:      signer,
		memo:        memo,
	}
}

// mirror returns the node's mirror of principal p, or nil when it does
// not check p.
func (n *Node) mirror(p graph.NodeID) *mirror {
	i, ok := slices.BinarySearchFunc(n.mirrors, p, func(m mirror, p graph.NodeID) int { return cmp.Compare(m.principal, p) })
	if !ok {
		return nil
	}
	return &n.mirrors[i]
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
	// to check (all of them under the paper's assignment). Topology
	// lists neighbors in ascending order, so the mirrors ascend too.
	own := n.neighborsOf[n.ID()]
	n.mirrors = make([]mirror, 0, len(own))
	nviews := 0
	for _, p := range own {
		if !slices.Contains(n.checkersOf[p], n.ID()) {
			continue
		}
		neighbors := n.neighborsOf[p]
		n.mirrors = append(n.mirrors, mirror{principal: p, neighbors: neighbors, self: slices.Index(neighbors, n.ID())})
		nviews += len(neighbors)
	}
	views := make([]fpss.NeighborView, nviews)
	for i := range n.mirrors {
		m := &n.mirrors[i]
		k := len(m.neighbors)
		m.views, views = views[:k:k], views[k:]
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

// recordSend is the principal's per-send callback: it applies what
// went to a neighbor to the mirror this node keeps of it (checkers
// apply their own sends directly; the principal cannot drop them), and
// that view is the ground truth a forward copy claiming this node as
// its sender is checked against. Sent tables are immutable once
// published, hooked ones included, so the mirror shares them.
func (n *Node) recordSend(to graph.NodeID, u fpss.Update) {
	if m := n.mirror(to); m != nil {
		m.views[m.self] = fpss.NeighborView{Routing: u.Routing, Pricing: u.Pricing}
		m.sent = true
	}
}

// onForwardCopy handles a checker-side forwarded input ([CHECK1]/
// [CHECK2]): validate provenance, then mirror the principal's
// computation.
func (n *Node) onForwardCopy(fc ForwardCopy) {
	m := n.mirror(fc.Principal)
	if m == nil {
		n.flag(fc.Principal, "forward copy from non-neighbor principal")
		return
	}
	if fc.From == n.ID() {
		// The principal claims this node sent it: verify against what
		// was actually sent (the spoof catch — "this spoof will create
		// an inconsistency in the identity tag information").
		last := m.views[m.self]
		if !m.sent || !last.Routing.Equal(fc.U.Routing) || !last.Pricing.Equal(fc.U.Pricing) {
			n.flag(fc.Principal, "forward copy misattributes this checker")
			return
		}
		return // own sends are already applied to the mirror
	}
	i := slices.Index(m.neighbors, fc.From)
	if i < 0 {
		// [CHECK2]: "Ignore messages with identity tags that are not
		// checker nodes of the principal."
		n.flag(fc.Principal, fmt.Sprintf("forward copy from %d, not a checker of %d", fc.From, fc.Principal))
		return
	}
	m.views[i] = fpss.NeighborView{Routing: fc.U.Routing, Pricing: fc.U.Pricing}
}

func (n *Node) onStateRequest(ctx sim.Context) {
	// [CHECK1]/[CHECK2] at the checkpoint: what each principal last
	// advertised to this checker must equal the faithfully mirrored
	// computation. At quiescence every message has been delivered, so
	// any divergence is a deviation, not a transient. This is where
	// each mirror is checked, once, against the views it has collected,
	// or shares the verdict of another checker of the principal with
	// the same views and advertisement (see mirrorMemo.check).
	// Mirrors are walked in ascending principal order, so the flags,
	// and the signed report, are the same in every run.
	d, costs := n.Derivation(), n.CostsView()
	truth := bank.StateReport{
		Node:      n.ID(),
		CostsHash: costs.HashCosts(),
		Mirrors:   make([]bank.MirrorReport, len(n.mirrors)),
	}
	truth.RoutingHash, truth.PricingHash = n.memo.hash(n.ID(), fpss.NeighborView{Routing: d.Routing(), Pricing: d.Pricing()})
	for i := range n.mirrors {
		m := &n.mirrors[i]
		p := m.principal
		advert, advertised := d.View(p)
		c := n.memo.check(d.Scratch(), m, costs, truth.CostsHash, advert, advertised)
		if testHookMirrorCheck != nil {
			testHookMirrorCheck(n, m, c)
		}
		if !advertised {
			n.flag(p, "principal never advertised")
		} else if !c.matches {
			n.flag(p, "advertisement diverges from checker mirror")
		}
		truth.Mirrors[i] = bank.MirrorReport{
			Principal:   p,
			RoutingHash: c.routingHash,
			PricingHash: c.pricingHash,
		}
	}
	truth.Flags = append([]bank.Flag(nil), n.flags...)
	env, jsonBytes := bank.EncodeReport(n.signer, n.strategy.reportState(truth))
	ctx.Send(fpss.BankAddr, StateReply{Env: env, JSONBytes: jsonBytes})
}

func (n *Node) flag(principal graph.NodeID, reason string) {
	n.flags = append(n.flags, bank.Flag{Reporter: n.ID(), Principal: principal, Reason: reason})
}
