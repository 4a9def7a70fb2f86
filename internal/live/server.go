package live

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/churn"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/rational"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Server keeps one scenario resident: each epoch's fpss.Node
// principals, converged through both construction phases by one
// fpss.Run, whose tables Route and Pay requests then read. Epoch
// advances and deviant injections rebuild the epoch in place, without
// restarting the process; each epoch's central solution is computed
// once and cached on the timeline.
//
// Dispatch is safe for concurrent use: reads (Route/Pay/Stats) take a
// shared lock against the rare rebuild writes.
type Server struct {
	// tl is the spec's compiled timeline, one epoch for a static spec;
	// each epoch caches its compile and central solution.
	tl *churn.Timeline

	// injectMu serializes injects from the epoch read through the
	// swap, so concurrent Advances step one epoch each and a Reset
	// cannot swap epoch e back in over e+1. Reads never take it.
	injectMu sync.Mutex

	mu    sync.RWMutex
	epoch int
	st    *epochState
}

// epochState is one epoch resident: the compiled scenario, the
// principals of its converged fpss.Run and that run's counters, plus
// read-only caches derived from the converged tables.
type epochState struct {
	comp     *scenario.Compiled
	nodes    []*fpss.Node // indexed by NodeID
	counters sim.Counters // the run's cumulative counters
	// declared is each principal's own DATA1 declaration, the amount
	// SchemeDeclaredCost obligations pay it. A deviant that tampers
	// with relayed costs leaves other nodes' DATA1 views disagreeing,
	// so no single node's view will do.
	declared fpss.CostTable
	// divergence counts nodes whose served tables differ from the
	// central solution; -1 when central is nil.
	divergence int
	// deviant names the injected deviation ("" = honest).
	deviant     string
	deviantNode graph.NodeID
}

// NewServer compiles the spec's timeline (one epoch for static specs)
// and converges epoch 0.
func NewServer(sp scenario.Spec) (*Server, error) {
	tl, err := churn.Build(sp)
	if err != nil {
		return nil, err
	}
	s := &Server{tl: tl}
	st, err := s.buildEpoch(0, -1, "")
	if err != nil {
		return nil, err
	}
	s.st = st
	return s, nil
}

// Close does nothing: a converged epoch holds no goroutines or open
// network. It remains only because the benchmark harness calls it.
func (s *Server) Close() {}

// N returns the current epoch's node count.
func (s *Server) N() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.comp.Graph.N()
}

// Epochs returns the timeline length (1 for static scenarios).
func (s *Server) Epochs() int { return len(s.tl.Epochs) }

// buildEpoch converges epoch e with one fpss.Run, with node
// `deviantNode` running the named catalogued deviation (deviant == ""
// builds the honest epoch). It does not install the result. The
// epoch's compile and, when the central path is authoritative, its
// central solution come from the timeline's cache.
func (s *Server) buildEpoch(e int, deviantNode graph.NodeID, deviant string) (*epochState, error) {
	ep := s.tl.Epochs[e]
	comp := ep.Compiled
	central, ok, err := ep.CentralState()
	if err != nil {
		return nil, err
	}
	if !ok {
		central = nil
	}
	var strategies map[graph.NodeID]*fpss.Strategy
	if deviant != "" {
		d, ok := rational.FindDeviation(deviant, true)
		if !ok {
			return nil, fmt.Errorf("live: unknown deviation %q", deviant)
		}
		strat, ok := d.ProtocolStrategy(rational.Ctx{Graph: comp.Graph, Node: deviantNode})
		if !ok {
			return nil, fmt.Errorf("live: deviation %q has no protocol part to run live", deviant)
		}
		strategies = map[graph.NodeID]*fpss.Strategy{deviantNode: strat}
	}
	res, err := fpss.Run(fpss.Config{Graph: comp.Graph, Strategies: strategies, Loss: comp.Params.Loss})
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}

	n := comp.Graph.N()
	st := &epochState{
		comp:        comp,
		nodes:       make([]*fpss.Node, n),
		counters:    res.Phase2,
		declared:    make(fpss.CostTable, n),
		divergence:  -1,
		deviant:     deviant,
		deviantNode: deviantNode,
	}
	if central != nil {
		st.divergence = 0
	}
	for id, nd := range res.Nodes {
		st.nodes[id] = nd
		st.declared[id] = nd.DeclaredCost()
		if central != nil && (!nd.RoutingView().Equal(central.Sol.Routing[id]) ||
			!nd.PricingView().Equal(central.Sol.Pricing[id])) {
			st.divergence++
		}
	}
	return st, nil
}

// swap installs a freshly built epoch state.
func (s *Server) swap(e int, st *epochState) {
	s.mu.Lock()
	s.epoch, s.st = e, st
	s.mu.Unlock()
}

// Dispatch implements Dispatcher.
func (s *Server) Dispatch(req Request) Response {
	switch req.Op {
	case OpRoute:
		return s.route(req)
	case OpPay:
		return s.pay(req)
	case OpStats:
		return s.stats()
	case OpInject:
		return s.inject(req)
	default:
		return fail("live: unknown op %q", req.Op)
	}
}

func (s *Server) route(req Request) Response {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.st
	if err := st.checkFlow(req.Src, req.Dst); err != nil {
		return fail("%v", err)
	}
	e, ok := st.nodes[req.Src].RoutingView().Get(graph.NodeID(req.Dst))
	if !ok {
		return fail("live: node %d has no route to %d", req.Src, req.Dst)
	}
	path := make([]int, len(e.Path))
	for i, h := range e.Path {
		path[i] = int(h)
	}
	return Response{OK: true, Path: path, Cost: int64(e.Cost), Epoch: s.epoch}
}

func (s *Server) pay(req Request) Response {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.st
	if err := st.checkFlow(req.Src, req.Dst); err != nil {
		return fail("%v", err)
	}
	packets := req.Packets
	if packets <= 0 {
		packets = 1
	}
	dst := graph.NodeID(req.Dst)
	node := st.nodes[req.Src]
	if _, ok := node.RoutingView().Get(dst); !ok {
		return fail("live: node %d has no route to %d", req.Src, req.Dst)
	}
	list := make(fpss.PaymentList)
	fpss.AddObligation(list, node.RoutingView(), node.PricingView(), dst, packets, st.comp.Params.Scheme, st.declared)
	payments := make([]Payment, 0, len(list))
	var total int64
	for _, k := range sortedKeys(list) {
		payments = append(payments, Payment{To: int(k), Amount: list[k]})
		total += list[k]
	}
	return Response{OK: true, Payments: payments, Total: total, Epoch: s.epoch}
}

func (s *Server) stats() Response {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.st
	stats := &Stats{
		Epoch:      s.epoch,
		Epochs:     s.Epochs(),
		N:          st.comp.Graph.N(),
		Deviant:    st.deviant,
		Divergence: st.divergence,
		Net:        st.counters,
	}
	if st.deviant != "" {
		stats.DeviantNode = int(st.deviantNode)
	}
	return Response{OK: true, Epoch: s.epoch, Stats: stats}
}

func (s *Server) inject(req Request) Response {
	s.injectMu.Lock()
	defer s.injectMu.Unlock()
	s.mu.RLock()
	epoch := s.epoch
	n := s.st.comp.Graph.N()
	s.mu.RUnlock()

	switch {
	case req.Advance:
		if epoch+1 >= s.Epochs() {
			return fail("live: already at final epoch %d", epoch)
		}
		st, err := s.buildEpoch(epoch+1, -1, "")
		if err != nil {
			return fail("%v", err)
		}
		s.swap(epoch+1, st)
		return Response{OK: true, Epoch: epoch + 1}
	case req.Reset:
		st, err := s.buildEpoch(epoch, -1, "")
		if err != nil {
			return fail("%v", err)
		}
		s.swap(epoch, st)
		return Response{OK: true, Epoch: epoch}
	case req.Deviation != "":
		if req.Node < 0 || req.Node >= n {
			return fail("live: deviant node %d out of range [0,%d)", req.Node, n)
		}
		st, err := s.buildEpoch(epoch, graph.NodeID(req.Node), req.Deviation)
		if err != nil {
			return fail("%v", err)
		}
		s.swap(epoch, st)
		return Response{OK: true, Epoch: epoch}
	default:
		return fail("live: inject requires a deviation, advance, or reset")
	}
}

func (st *epochState) checkFlow(src, dst int) error {
	n := st.comp.Graph.N()
	if src < 0 || src >= n {
		return fmt.Errorf("live: src %d out of range [0,%d)", src, n)
	}
	if dst < 0 || dst >= n {
		return fmt.Errorf("live: dst %d out of range [0,%d)", dst, n)
	}
	if src == dst {
		return fmt.Errorf("live: src == dst (%d)", src)
	}
	return nil
}

func sortedKeys(list fpss.PaymentList) []graph.NodeID {
	keys := make([]graph.NodeID, 0, len(list))
	for k := range list {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
