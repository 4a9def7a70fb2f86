// Package churn is the epoch-based dynamics engine: it stretches a
// static scenario into a timeline of epochs between which nodes join,
// leave and re-draw their transit costs, then replays the FPSS
// construction and execution phases per epoch with the bank's ledger
// carrying balances across the boundaries.
//
// The paper proves the extended FPSS specification faithful for a
// static network and names network dynamics as open (§5). This package
// makes dynamics a scenario axis: a scenario.Spec plus a scenario.Churn
// compile into a deterministic Timeline (the schedule is a pure
// function of the spec's seed), each epoch of which is a well-formed
// static scenario — biconnectivity is restored with
// graph.RepairBiconnected after every membership change — and the
// deviation search of core.CheckFaithfulness replays the whole
// (node, deviation) grid per epoch, including deviations that only
// exist at epoch boundaries: advertising a stale catalogue from the
// previous epoch, leaving without settling the final execution phase,
// and whitewashing — rejoining under a fresh identity to repeat the
// hustle.
//
// Determinism contract: Build is a pure function of its Spec. Epoch 0
// is exactly Spec.Compile() — a one-epoch timeline is byte-identical
// to the static scenario — and every boundary draw comes from a
// dedicated schedule stream derived from the seed, in a fixed order:
// leaves, then joins, then attachments, then re-draws, then the
// epoch's workload.
package churn

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// Identity is a stable participant identity. Epoch-local graph.NodeIDs
// are dense per epoch and re-numbered as membership changes; an
// Identity names the same participant across the whole timeline.
// Epoch 0's members are identities 0..n-1; joiners get fresh,
// never-reused identities after that.
type Identity int64

// Epoch is one construction+execution round of the timeline: a
// membership snapshot materialized as a static scenario.
type Epoch struct {
	// Index is the 0-based epoch number.
	Index int
	// Members lists the epoch's identities in ascending order; the
	// position of an identity is its epoch-local graph.NodeID.
	Members []Identity
	// Compiled is the epoch materialized: graph over the epoch-local
	// dense IDs, the epoch's workload, the spec's economic parameters.
	Compiled *scenario.Compiled
	// Joined / Left record the boundary events that produced this
	// epoch from the previous one (both empty for epoch 0). Left
	// identities are members of the previous epoch, not of this one.
	Joined, Left []Identity

	local map[Identity]graph.NodeID

	// simOnly forces the protocol-simulation path everywhere — the
	// permanent oracle the central path is differentially tested
	// against. Only the tests set it (simulateOnly).
	simOnly bool

	// central is the epoch's immutable fpss.Central — the honest
	// converged tables of one fpss.ComputeCentral of the epoch's graph
	// — shared read-only by honestTables and both system variants'
	// snapshots. Built lazily once per epoch.
	centralOnce sync.Once
	central     *fpss.Central
	centralErr  error

	// Honest converged construction tables per member identity, built
	// lazily once (read-only afterwards): the stale-catalogue deviation
	// advertises the previous epoch's tables in this one.
	tablesOnce sync.Once
	tablesErr  error
	routing    map[Identity]fpss.RoutingTable
	pricing    map[Identity]fpss.PricingTable
}

// Local maps an identity to its epoch-local NodeID.
func (e *Epoch) Local(id Identity) (graph.NodeID, bool) {
	n, ok := e.local[id]
	return n, ok
}

// IdentityOf maps an epoch-local NodeID back to its identity.
func (e *Epoch) IdentityOf(n graph.NodeID) Identity { return e.Members[n] }

// N returns the epoch's population.
func (e *Epoch) N() int { return len(e.Members) }

// Timeline is a materialized churn schedule: every epoch compiled and
// ready to play.
type Timeline struct {
	Spec   scenario.Spec
	Epochs []*Epoch

	// identities lists every identity that is a member of at least one
	// epoch, ascending.
	identities []Identity
}

// Identities lists every identity that ever participates, ascending.
// The slice is shared and read-only.
func (tl *Timeline) Identities() []Identity { return tl.identities }

// MemberEpochs returns the ascending epoch indices in which id is a
// member.
func (tl *Timeline) MemberEpochs(id Identity) []int {
	var out []int
	for _, e := range tl.Epochs {
		if _, ok := e.local[id]; ok {
			out = append(out, e.Index)
		}
	}
	return out
}

// DepartureOf returns the index of the epoch at whose *start* id had
// already left — i.e. id's last member epoch is boundary-1 — and
// whether id departs before the timeline ends.
func (tl *Timeline) DepartureOf(id Identity) (boundary int, ok bool) {
	for _, e := range tl.Epochs {
		for _, left := range e.Left {
			if left == id {
				return e.Index, true
			}
		}
	}
	return 0, false
}

// scheduleSeedSalt decorrelates the churn schedule stream from the
// spec's own compile stream (which starts at rand.NewSource(Seed));
// scenario.Mix64 finalizes the mix.
const scheduleSeedSalt = 0x636875726e21 // "churn!"

// Build materializes the timeline for a spec. With Churn.Epochs <= 1
// the timeline is the static scenario verbatim: one epoch, compiled by
// Spec.Compile.
func Build(sp scenario.Spec) (*Timeline, error) {
	epochs := sp.Churn.Epochs
	if epochs < 1 {
		epochs = 1
	}
	base, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	n0 := base.Graph.N()
	e0 := &Epoch{Index: 0, Members: make([]Identity, n0), Compiled: base}
	for i := 0; i < n0; i++ {
		e0.Members[i] = Identity(i)
	}
	e0.buildLocal()
	tl := &Timeline{Spec: sp, Epochs: []*Epoch{e0}}

	if epochs > 1 {
		costFn, err := sp.CostFunc()
		if err != nil {
			return nil, err
		}
		minN := sp.Churn.MinN
		if minN < 4 {
			minN = 4
		}
		rng := rand.New(rand.NewSource(int64(scenario.Mix64(uint64(sp.Seed) ^ scheduleSeedSalt))))
		nextID := Identity(n0)
		for e := 1; e < epochs; e++ {
			prev := tl.Epochs[e-1]
			next, err := evolve(sp, prev, e, &nextID, costFn, minN, rng)
			if err != nil {
				return nil, fmt.Errorf("churn: epoch %d: %w", e, err)
			}
			tl.Epochs = append(tl.Epochs, next)
		}
	}

	seen := make(map[Identity]bool)
	for _, e := range tl.Epochs {
		for _, id := range e.Members {
			if !seen[id] {
				seen[id] = true
				tl.identities = append(tl.identities, id)
			}
		}
	}
	sort.Slice(tl.identities, func(i, j int) bool { return tl.identities[i] < tl.identities[j] })
	return tl, nil
}

func (e *Epoch) buildLocal() {
	e.local = make(map[Identity]graph.NodeID, len(e.Members))
	for i, id := range e.Members {
		e.local[id] = graph.NodeID(i)
	}
}

// evolve derives epoch e from its predecessor: draw leaves (capped at
// the population floor), fresh joiner identities with model-drawn
// costs, carry surviving edges, attach joiners, repair biconnectivity,
// apply cost re-draws, and rebuild the epoch's workload.
func evolve(sp scenario.Spec, prev *Epoch, index int, nextID *Identity, costFn graph.CostFn, minN int, rng *rand.Rand) (*Epoch, error) {
	// Leaves: distinct previous members, floor-capped.
	leaves := sp.Churn.Leaves
	if room := len(prev.Members) - minN; leaves > room {
		leaves = room
	}
	if leaves < 0 {
		leaves = 0
	}
	leaving := make(map[Identity]bool, leaves)
	var left []Identity
	for len(left) < leaves {
		id := prev.Members[rng.Intn(len(prev.Members))]
		if leaving[id] {
			continue
		}
		leaving[id] = true
		left = append(left, id)
	}
	sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })

	// Survivors keep their identities and (for now) their costs.
	members := make([]Identity, 0, len(prev.Members)-leaves+sp.Churn.Joins)
	costs := make(map[Identity]graph.Cost, len(prev.Members))
	for _, id := range prev.Members {
		if leaving[id] {
			continue
		}
		members = append(members, id)
		costs[id] = prev.Compiled.Graph.Cost(prev.local[id])
	}

	// Joins: fresh identities, model-drawn costs.
	var joined []Identity
	for j := 0; j < sp.Churn.Joins; j++ {
		id := *nextID
		*nextID++
		joined = append(joined, id)
		members = append(members, id)
		costs[id] = costFn(rng)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	next := &Epoch{Index: index, Members: members, Joined: joined, Left: left}
	next.buildLocal()

	// Graph: surviving edges carried over, then each joiner attaches to
	// two distinct established members, then biconnectivity repair.
	g := graph.New(len(members))
	for _, id := range members {
		if err := g.SetCost(next.local[id], costs[id]); err != nil {
			return nil, err
		}
	}
	for _, edge := range prev.Compiled.Graph.Edges() {
		u, v := prev.IdentityOf(edge[0]), prev.IdentityOf(edge[1])
		if leaving[u] || leaving[v] {
			continue
		}
		if err := g.AddEdge(next.local[u], next.local[v]); err != nil {
			return nil, err
		}
	}
	joinedSet := make(map[Identity]bool, len(joined))
	for _, id := range joined {
		joinedSet[id] = true
	}
	var established []Identity
	for _, id := range members {
		if !joinedSet[id] {
			established = append(established, id)
		}
	}
	for _, id := range joined {
		attach := 2
		if attach > len(established) {
			attach = len(established)
		}
		picked := make(map[Identity]bool, attach)
		for len(picked) < attach {
			t := established[rng.Intn(len(established))]
			if picked[t] {
				continue
			}
			picked[t] = true
			if err := g.AddEdge(next.local[id], next.local[t]); err != nil {
				return nil, err
			}
		}
		// Later joiners may also attach to earlier ones.
		established = append(established, id)
	}
	if err := graph.RepairBiconnected(g); err != nil {
		return nil, err
	}

	// Cost re-draws on survivors (type dynamics).
	if f := sp.Churn.RedrawFraction; f > 0 {
		for _, id := range members {
			if joinedSet[id] {
				continue
			}
			if rng.Float64() < f {
				if err := g.SetCost(next.local[id], costFn(rng)); err != nil {
					return nil, err
				}
			}
		}
	}

	traffic, err := sp.TrafficFor(len(members), rng)
	if err != nil {
		return nil, err
	}
	next.Compiled = sp.Materialize(g, traffic)
	if sp.Loss.Enabled() {
		// Re-salt the drop schedule per epoch: a boundary re-run must
		// not replay epoch 0's exact drops. Epoch 0 itself goes through
		// Spec.Compile and keeps the static schedule.
		next.Compiled.Params.Loss = sp.LossModelForEpoch(next.Index)
	}
	if sp.Shards.Enabled() {
		// Same per-epoch re-salt for the settlement: fresh home-shard
		// routing and crash timings, while K and the crash plan stay
		// the axis's.
		next.Compiled.Params.Settle = sp.SettleOptionsForEpoch(next.Index)
	}
	return next, nil
}

// useCentral reports whether the epoch may serve honest state from the
// shared central solution. Under an enabled loss model the protocol
// simulation stays authoritative — convergence bookkeeping, retry
// counters and loss attribution are the sim's semantics, not the
// central solver's — and simOnly pins the oracle path explicitly.
func (e *Epoch) useCentral() bool {
	return !e.simOnly && !e.Compiled.Params.Loss.Enabled()
}

// centralState returns the epoch's fpss.Central: one
// fpss.ComputeCentral of the epoch's graph, computed once and
// immutable after.
func (e *Epoch) centralState() (*fpss.Central, error) {
	e.centralOnce.Do(func() {
		sol, err := fpss.ComputeCentral(e.Compiled.Graph)
		if err != nil {
			e.centralErr = err
			return
		}
		e.central = &fpss.Central{Sol: sol}
	})
	return e.central, e.centralErr
}

// CentralState exposes the epoch's central solution to layers that
// keep epochs resident instead of replaying them, so serving and
// checking share one notion of the honest tables. It reports ok ==
// false when the central path is not authoritative for this epoch
// (enabled loss, or simOnly pinning the simulation oracle); callers
// must then fall back to the protocol simulation.
func (e *Epoch) CentralState() (c *fpss.Central, ok bool, err error) {
	if !e.useCentral() {
		return nil, false, nil
	}
	c, err = e.centralState()
	return c, err == nil, err
}

// honestTables returns the epoch's honest converged construction
// tables per member identity, computing them once. They are what a
// stale-catalogue deviator re-advertises in the next epoch. The
// construction phase is identical for the plain and faithful variants
// (checkers mirror without altering the computation), so one cache
// serves both.
//
// Neither path clones. On the central path the tables come straight
// from the epoch's central solution, pinned byte-identical to the
// converged protocol tables by the fpss and faithful test suites; on
// the simulated path they are the converged run's own. Both are
// immutable once built: the stale-catalogue remap builds new tables,
// and the deviator's Post hooks publish those as they are.
func (e *Epoch) honestTables() (map[Identity]fpss.RoutingTable, map[Identity]fpss.PricingTable, error) {
	e.tablesOnce.Do(func() {
		if e.useCentral() {
			c, err := e.centralState()
			if err != nil {
				e.tablesErr = err
				return
			}
			e.routing = make(map[Identity]fpss.RoutingTable, len(e.Members))
			e.pricing = make(map[Identity]fpss.PricingTable, len(e.Members))
			for i, id := range e.Members {
				e.routing[id] = c.Sol.Routing[graph.NodeID(i)]
				e.pricing[id] = c.Sol.Pricing[graph.NodeID(i)]
			}
			return
		}
		res, err := fpss.Run(fpss.Config{Graph: e.Compiled.Graph, Loss: e.Compiled.Params.Loss})
		if err != nil {
			e.tablesErr = err
			return
		}
		e.routing = make(map[Identity]fpss.RoutingTable, len(e.Members))
		e.pricing = make(map[Identity]fpss.PricingTable, len(e.Members))
		for local, node := range res.Nodes {
			id := e.IdentityOf(local)
			// The run is over, and its converged tables are published
			// ones that nothing writes to, so the cache shares them
			// across concurrent plays as it does the central solution.
			e.routing[id] = node.RoutingView()
			e.pricing[id] = node.PricingView()
		}
	})
	return e.routing, e.pricing, e.tablesErr
}

// staleTables remaps id's honest tables from the previous epoch into
// the current epoch's local numbering: entries touching departed
// identities are dropped (the stale catalogue simply does not know the
// new world), surviving entries keep their now-possibly-wrong costs.
func (tl *Timeline) staleTables(id Identity, epoch int) (fpss.RoutingTable, fpss.PricingTable, error) {
	prev, cur := tl.Epochs[epoch-1], tl.Epochs[epoch]
	routing, pricing, err := prev.honestTables()
	if err != nil {
		return nil, nil, err
	}
	remap := func(old graph.NodeID) (graph.NodeID, bool) {
		n, ok := cur.local[prev.IdentityOf(old)]
		return n, ok
	}
	remapPath := func(p graph.Path) (graph.Path, bool) {
		out := make(graph.Path, len(p))
		for i, n := range p {
			m, ok := remap(n)
			if !ok {
				return nil, false
			}
			out[i] = m
		}
		return out, true
	}
	rt := make(fpss.RoutingTable, cur.N())
	for dest, entry := range routing[id].All() {
		d, ok := remap(dest)
		if !ok {
			continue
		}
		path, ok := remapPath(entry.Path)
		if !ok {
			continue
		}
		rt[d] = fpss.RouteEntry{Dest: d, Cost: entry.Cost, Path: path}
	}
	pt := make(fpss.PricingTable, cur.N())
	for dest, row := range pricing[id].All() {
		d, ok := remap(dest)
		if !ok {
			continue
		}
		newRow := make(map[graph.NodeID]fpss.PriceEntry, len(row))
		for transit, entry := range row {
			k, ok := remap(transit)
			if !ok {
				continue
			}
			avoid, ok := remapPath(entry.Avoid)
			if !ok {
				continue
			}
			tags := make([]graph.NodeID, 0, len(entry.Tags))
			for _, tg := range entry.Tags {
				m, ok := remap(tg)
				if !ok {
					continue
				}
				tags = append(tags, m)
			}
			sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
			newRow[k] = fpss.PriceEntry{Transit: k, Price: entry.Price, Avoid: avoid, Tags: tags}
		}
		if len(newRow) > 0 {
			pt[d] = newRow
		}
	}
	return rt, pt, nil
}
