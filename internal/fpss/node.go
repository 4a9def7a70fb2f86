package fpss

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// Message payloads exchanged by the distributed protocol.

// CostAnnounce floods a node's declared transit cost (first
// construction phase, building DATA1). Declaring one's own cost is an
// information-revelation action; relaying others' announcements is a
// message-passing action (§4.1).
type CostAnnounce struct {
	Origin graph.NodeID
	Cost   graph.Cost
}

// Size implements sim.Sizer.
func (CostAnnounce) Size() int { return 2 }

// StartPhase2 is the checkpoint signal ("green-light") that begins the
// second construction phase.
type StartPhase2 struct{}

// Size implements sim.Sizer.
func (StartPhase2) Size() int { return 1 }

// Update carries a node's full routing and pricing tables to a
// neighbor (second construction phase). Updating tables is a
// computation action; (in the faithful extension) forwarding copies to
// checkers is a message-passing action.
type Update struct {
	From    graph.NodeID
	Routing RoutingTable
	Pricing PricingTable
}

// Size implements sim.Sizer: present entries, as an abstract byte
// measure.
func (u Update) Size() int {
	s := 1 + u.Routing.Len()
	for _, row := range u.Pricing {
		s += len(row)
	}
	return s
}

// Strategy is a node's deviation surface: nil fields mean the faithful
// (suggested) behavior. The rational package populates fields to build
// the deviation catalogue of §4.3; the faithful package's checkers
// exist to make every such deviation unprofitable.
//
// The send and receive hooks are handed published tables: the ones the
// sender keeps as its own DATA2/DATA3*, its neighbors keep as views and
// checkers keep as records. A hook must never write to them. To change
// one it returns a new table that shares whatever it leaves unchanged:
// a slices.Clone of a routing table (entries are values, and paths are
// never edited), or a slices.Clone of a pricing table with a new map
// for each row it edits. The Post hooks are exempt: they are handed
// freshly computed tables, which nothing else holds yet.
type Strategy struct {
	// DeclareCost maps the true transit cost to the declared one
	// (information revelation; Example 1 / E2).
	DeclareCost func(truth graph.Cost) graph.Cost
	// RelayCost intercepts a CostAnnounce about to be relayed to a
	// neighbor; returning ok=false drops it (message passing).
	RelayCost func(to graph.NodeID, a CostAnnounce) (CostAnnounce, bool)
	// PostRouting rewrites the freshly computed routing table before
	// it is stored and advertised (computation; manipulation 2).
	PostRouting func(faithful RoutingTable) RoutingTable
	// PostPricing rewrites the freshly computed pricing table
	// (computation; manipulation 4).
	PostPricing func(faithful PricingTable) PricingTable
	// SendUpdate intercepts an outgoing Update to a neighbor;
	// returning ok=false drops it (message passing; manipulations 1,3).
	// Every neighbor's call gets the same published tables, which the
	// hook copies on write (see the type's comment).
	SendUpdate func(to graph.NodeID, u Update) (Update, bool)
	// RecvUpdate intercepts an incoming Update before it is applied;
	// returning ok=false discards it — the receiver pretends the
	// network lost it (message passing; ack withholding under a lossy
	// failure model). The update holds the sender's published tables,
	// which the hook copies on write (see the type's comment).
	RecvUpdate func(u Update) (Update, bool)
}

func (s *Strategy) declareCost(truth graph.Cost) graph.Cost {
	if s == nil || s.DeclareCost == nil {
		return truth
	}
	return s.DeclareCost(truth)
}

func (s *Strategy) postRouting(t RoutingTable) RoutingTable {
	if s == nil || s.PostRouting == nil {
		return t
	}
	return s.PostRouting(t)
}

func (s *Strategy) postPricing(t PricingTable) PricingTable {
	if s == nil || s.PostPricing == nil {
		return t
	}
	return s.PostPricing(t)
}

func (s *Strategy) recvUpdate(u Update) (Update, bool) {
	if s == nil || s.RecvUpdate == nil {
		return u, true
	}
	return s.RecvUpdate(u)
}

// Node is one FPSS participant attached to the simulator. It executes
// the two construction phases; execution-phase accounting is done
// offline from the converged tables (see Execute). The faithful
// extension embeds it as the principal and drives it through Accept,
// Advertise and BeginPhase2, adding only the checker role.
type Node struct {
	id        graph.NodeID
	trueCost  graph.Cost
	neighbors []graph.NodeID
	strategy  *Strategy

	costs CostTable // DATA1
	own   Derivation

	phase2  bool
	adverts int
}

// advertBudget bounds how many times a node re-advertises its tables.
// Honest convergence needs at most O(n²) changes (each destination's
// route strictly improves under the composite order, bounded by hop
// count); the budget is far above that. Its purpose is to guarantee
// quiescence even when a deviating strategy induces oscillation —
// real BGP bounds re-advertisement the same way (MRAI timers) — so the
// bank's quiescence checkpoint always fires and catches the deviation.
// Loop rejection (see routeTo) stops most such oscillation; a lie can
// still build a dispute wheel that only the budget ends, as
// TestZeroCostLieOscillatesToBudget pins on Figure 1.
func (n *Node) advertBudget() int {
	known := len(n.costs)
	if known < len(n.neighbors)+1 {
		known = len(n.neighbors) + 1
	}
	return 8*known*known + 32
}

var _ sim.Handler = (*Node)(nil)

// NewNode builds a protocol node. neighbors is the node's local
// (semi-private) connectivity knowledge, retained read-only; strategy
// may be nil for the suggested specification.
func NewNode(id graph.NodeID, trueCost graph.Cost, neighbors []graph.NodeID, strategy *Strategy) *Node {
	return &Node{
		id:        id,
		trueCost:  trueCost,
		neighbors: neighbors,
		strategy:  strategy,
		costs:     make(CostTable),
		own:       NewDerivation(id, neighbors),
	}
}

// ID returns the node's identifier.
func (n *Node) ID() graph.NodeID { return n.id }

// CostsView returns the node's DATA1. The node fills it in place while
// phase 1 floods, so read it once the network is quiescent, and never
// edit it.
func (n *Node) CostsView() CostTable { return n.costs }

// RoutingView returns the node's DATA2, the table it last published.
// Published tables are never edited (see Derivation), so the view is
// read-only and needs no copy; it is the converged table once the
// network is quiescent.
func (n *Node) RoutingView() RoutingTable { return n.own.Routing() }

// PricingView returns the node's DATA3* (see RoutingView for the
// contract).
func (n *Node) PricingView() PricingTable { return n.own.Pricing() }

// Derivation returns the node's computation state: its neighbor views,
// its tables and the scratch behind them. A checker reads the views
// and borrows the scratch for its mirrors (single-threaded per node).
func (n *Node) Derivation() *Derivation { return &n.own }

// Release recycles the arena and the pricing rows behind the node's
// derivation: the paths, tag sets and rows of its tables, its neighbor
// views' copies of them, and those of any table computed with its
// scratch. Only a caller that reads nothing of the node's run
// afterwards may call it; the network must be quiescent.
func (n *Node) Release() { n.own.scratch.release() }

// DeclaredCost returns the cost this node announces (possibly a lie).
func (n *Node) DeclaredCost() graph.Cost { return n.strategy.declareCost(n.trueCost) }

// Init floods the node's own declared cost (first construction phase).
func (n *Node) Init(ctx sim.Context) {
	declared := n.strategy.declareCost(n.trueCost)
	n.costs[n.id] = declared
	var announce any = CostAnnounce{Origin: n.id, Cost: declared} // one box for every neighbor
	for _, v := range n.neighbors {
		ctx.Send(sim.Addr(v), announce)
	}
}

// Recv dispatches protocol messages.
func (n *Node) Recv(ctx sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case CostAnnounce:
		n.onCostAnnounce(ctx, m, msg.Payload)
	case StartPhase2:
		if n.BeginPhase2() {
			n.Advertise(ctx, true, nil)
		}
	case Update:
		if _, ok := n.Accept(m); ok {
			n.Advertise(ctx, false, nil)
		}
	}
}

// onCostAnnounce records a flooded cost and relays it. payload is a as
// delivered: a relay the RelayCost hook does not rewrite resends that
// box, so the flood boxes each announcement once, at its origin.
func (n *Node) onCostAnnounce(ctx sim.Context, a CostAnnounce, payload any) {
	if _, known := n.costs[a.Origin]; known {
		return // flood dedup
	}
	n.costs[a.Origin] = a.Cost
	n.own.MarkAll()
	hooked := n.strategy != nil && n.strategy.RelayCost != nil
	for _, v := range n.neighbors {
		out := payload
		if hooked {
			relayed, ok := n.strategy.RelayCost(v, a)
			if !ok {
				continue
			}
			out = relayed
		}
		ctx.Send(sim.Addr(v), out)
	}
}

// BeginPhase2 enters the second construction phase and reports whether
// this call did so. A node already in it — green-lit before, or started
// early by a neighbor's update (see Accept) — ignores the signal.
func (n *Node) BeginPhase2() bool {
	if n.phase2 {
		return false
	}
	n.phase2 = true
	return true
}

// Accept applies a neighbor's update to the node's views and returns
// it as the RecvUpdate hook left it; ok=false means the hook discarded
// it. An update implies phase 2 has begun (late-start robustness).
// Callers follow an accepted update with Advertise.
func (n *Node) Accept(u Update) (Update, bool) {
	var ok bool
	if u, ok = n.strategy.recvUpdate(u); !ok {
		return u, false
	}
	n.phase2 = true
	n.own.SetView(u.From, NeighborView{Routing: u.Routing, Pricing: u.Pricing})
	return u, true
}

// Advertise re-derives the tables (with any strategy post-hooks) and,
// when they changed or force is set, sends them to every neighbor
// through the SendUpdate hook. sent, when non-nil, sees each update as
// it goes out.
func (n *Node) Advertise(ctx sim.Context, force bool, sent func(to graph.NodeID, u Update)) {
	if !n.own.Derive(n.costs, n.strategy) && !force {
		return
	}
	if n.adverts >= n.advertBudget() {
		return // oscillation damping; see advertBudget
	}
	n.adverts++
	// Derivation always replaces (never mutates) the tables, so every
	// send shares one advertisement: honest ones box it once for every
	// neighbor, and a SendUpdate hook gets it as is and copies on write.
	base := Update{From: n.id, Routing: n.own.Routing(), Pricing: n.own.Pricing()}
	hooked := n.strategy != nil && n.strategy.SendUpdate != nil
	var boxed any
	if !hooked {
		boxed = base
	}
	for _, v := range n.neighbors {
		u, out := base, boxed
		if hooked {
			var ok bool
			if u, ok = n.strategy.SendUpdate(v, base); !ok {
				continue
			}
			out = u
		}
		if sent != nil {
			sent(v, u)
		}
		ctx.Send(sim.Addr(v), out)
	}
}
