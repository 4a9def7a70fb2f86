package fpss

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
)

// ErrNotBiconnected is returned when the topology violates the FPSS
// assumption that keeps VCG payments well defined.
var ErrNotBiconnected = errors.New("fpss: graph is not biconnected")

// Solution is the centralized reference: for every node, its routing
// and pricing tables computed with full topology knowledge, each with
// one slot per node. The distributed protocol converges to exactly
// this — including witness paths, identity tags and table lengths —
// because both use the same composite (cost, hops, lexicographic)
// route order.
type Solution struct {
	Costs   CostTable
	Routing map[graph.NodeID]RoutingTable
	Pricing map[graph.NodeID]PricingTable
}

// Central is one epoch's central solution as the churn layer hands it
// out (churn.Epoch.CentralState). It only wraps Sol: the benchmark
// harness in perfbench reads c.Sol through it.
type Central struct {
	Sol *Solution
}

// ComputeCentral solves routing (DATA2) and VCG pricing (DATA3*) for
// every node from a global view of the declared-cost graph.
//
// For traffic i→j and transit node k on LCP(i,j):
//
//	p^k_ij = ĉ_k + cost(LCP_{-k}(i,j)) − cost(LCP(i,j))
//
// where LCP_{-k} avoids k (finite by biconnectivity). This is the FPSS
// VCG rule; truthful cost declaration is a dominant strategy under it.
// Identity tags are the set of the owner's neighbors v whose best
// avoid-k continuation attains the minimum — the "union of the nodes
// that suggested the same pricing entry" (§4.3 DATA3*).
//
// The computation is batched, and each of its three stages runs on
// one pool (see par.Run) whose workers claim jobs by index. It builds
// one parent-pointer SSSP tree per source for the base routes. Then, for
// each node k that actually appears as a transit node on some LCP
// (nodes that are never transit need no marginal economy), one job
// derives every source's avoid-k tree from that source's base tree by
// relabelling only k's subtree (graph.SSSPWithout), into trees its
// worker owns and reuses from job to job, and fills every price entry
// that names k: each (source, destination, k) has a slot of its own.
// A last job per source assembles its tables from its slots. Route
// paths, witness paths and tag sets are carved from each worker's
// NodeID arena. Results are deterministic — byte-identical to the
// sequential reference — because every job writes only its own slots.
// No route tree outlives the call.
func ComputeCentral(g *graph.Graph) (*Solution, error) {
	if !g.IsBiconnected() {
		return nil, ErrNotBiconnected
	}
	n := g.N()
	sol := &Solution{
		Costs:   make(CostTable, n),
		Routing: make(map[graph.NodeID]RoutingTable, n),
		Pricing: make(map[graph.NodeID]PricingTable, n),
	}
	for i := 0; i < n; i++ {
		sol.Costs[graph.NodeID(i)] = g.Cost(graph.NodeID(i))
	}
	workers := newPool[centralWorker](n)

	// Base trees: one full SSSP per source, in parallel.
	base := make([]*graph.Tree, n)
	err := par.Run(workers, n, func(w *centralWorker, i int) error {
		t := &graph.Tree{}
		if err := g.SSSP(t, &w.s, graph.NodeID(i)); err != nil {
			return fmt.Errorf("all pairs from %d: %w", i, err)
		}
		base[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Transit set: a node k needs an avoid-k economy only if it is an
	// intermediate node on some LCP. Every intermediate node is the
	// immediate parent of the next node on that LCP — which, by prefix
	// optimality, is itself a tree destination — so marking each
	// destination's parent covers the whole set in O(n²) total.
	//
	// The same pass lays out the price slots: source i's entries for
	// its route to j are slots[at[i·n+j]:][:Hops_i[j]−1], one per
	// transit node in route order. Transit k sits at depth Hops_i[k]
	// on every route through it, so its entry for (i, j) is slot
	// at[i·n+j] + Hops_i[k] − 1.
	isTransit := make([]bool, n)
	at := make([]int32, n*n)
	slotCount := 0
	for i := 0; i < n; i++ {
		t := base[i]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if !t.Reached(graph.NodeID(j)) {
				return nil, fmt.Errorf("fpss: no path %d→%d despite biconnectivity", i, j)
			}
			at[i*n+j] = int32(slotCount)
			slotCount += int(t.Hops[j]) - 1
			if p := t.Parent[j]; p != -1 && graph.NodeID(p) != t.Src {
				isTransit[p] = true
			}
		}
	}
	slots := make([]PriceEntry, slotCount)

	// Avoid sweep, one parallel job per node k; a node that is never
	// transit has nothing to price. The job derives every source's
	// avoid-k tree into its worker's trees (tag computation needs the
	// tree of every neighbor of the owner, so the sweep is full),
	// keeping the destinations below k that each derivation lists. Then
	// it fills slot (i, j, k) for each source i and each such
	// destination j.
	//
	// One CSR-view fetch (and csrMu acquisition) per source, not per
	// price entry.
	neighbors := make([][]graph.NodeID, n)
	for i := range neighbors {
		neighbors[i] = g.AdjView(graph.NodeID(i))
	}
	err = par.Run(workers, n, func(w *centralWorker, kj int) error {
		if !isTransit[kj] {
			return nil
		}
		k := graph.NodeID(kj)
		trees := w.avoidTrees(n)
		below, end := w.below[:0], w.belowEnd
		for v := 0; v < n; v++ {
			if v != kj {
				if err := g.SSSPWithout(&trees[v], &w.s, base[v], k); err != nil {
					return fmt.Errorf("all pairs without %d: %w", k, err)
				}
				for _, j := range w.s.Below() {
					below = append(below, graph.NodeID(j))
				}
			}
			end[v+1] = int32(len(below))
		}
		w.below = below
		ck := g.Cost(k)
		for i := 0; i < n; i++ {
			t, noK := base[i], &trees[i]
			depth := int(t.Hops[k]) - 1
			for _, dst := range below[end[i]:end[i+1]] {
				if !noK.Reached(dst) {
					return fmt.Errorf("fpss: no avoid-%d path %d→%d", k, i, dst)
				}
				b := noK.Dist[dst]
				w.tags = centralTags(w.tags[:0], g, neighbors[i], dst, k, b, trees)
				slots[int(at[i*n+int(dst)])+depth] = PriceEntry{
					Transit: k,
					Price:   ck + b - t.Dist[dst],
					Avoid:   noK.AppendPathTo(w.ids.allocIDs(int(noK.Hops[dst])+1), dst),
					Tags:    w.ids.copyIDs(w.tags),
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble per-source routing and pricing tables, one parallel job
	// per source (each writes only its own slot).
	routing := make([]RoutingTable, n)
	pricing := make([]PricingTable, n)
	err = par.Run(workers, n, func(w *centralWorker, i int) error {
		t := base[i]
		rt := make(RoutingTable, n)
		pt := make(PricingTable, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dst := graph.NodeID(j)
			hops := int(t.Hops[j])
			rt[dst] = RouteEntry{Cost: t.Dist[j], Path: t.AppendPathTo(w.ids.allocIDs(hops+1), dst)}
			if hops < 2 {
				continue // a neighbor: no transit node to price
			}
			row := make(map[graph.NodeID]PriceEntry, hops-1)
			for _, e := range slots[at[i*n+j]:][:hops-1] {
				row[e.Transit] = e
			}
			pt[dst] = row
		}
		routing[i] = rt
		pricing[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		sol.Routing[graph.NodeID(i)] = routing[i]
		sol.Pricing[graph.NodeID(i)] = pricing[i]
	}
	return sol, nil
}

// centralWorker is one pool worker's state for the length of one
// ComputeCentral call: its SSSP scratch, the avoid-k trees of the job
// it runs, and the NodeID arena the solution's route paths, witness
// paths and tag sets are carved from. It is never pooled across calls:
// every entry carved from an arena chunk keeps the whole chunk alive,
// so a chunk shared by two epochs' solutions would keep the older one
// alive too.
type centralWorker struct {
	s   graph.Scratch
	ids ComputeScratch
	// trees[v] is v's avoid-k tree for the current job k.
	trees []graph.Tree
	// below[belowEnd[i]:belowEnd[i+1]] lists the destinations whose
	// route from i passes through k.
	below    []graph.NodeID
	belowEnd []int32
	tags     []graph.NodeID // tag-set staging before the arena copy
}

// avoidTrees returns the worker's n reusable trees. On first use it
// carves their labels from three n² blocks and sizes belowEnd.
func (w *centralWorker) avoidTrees(n int) []graph.Tree {
	if w.trees == nil {
		dist := make([]graph.Cost, n*n)
		hops := make([]int32, n*n)
		parent := make([]int32, n*n)
		w.trees = make([]graph.Tree, n)
		for v := range w.trees {
			lo, hi := v*n, (v+1)*n
			w.trees[v] = graph.Tree{Dist: dist[lo:hi:hi], Hops: hops[lo:hi:hi], Parent: parent[lo:hi:hi]}
		}
		w.belowEnd = make([]int32, n+1)
	}
	return w.trees
}

// centralTags appends to tags, and returns, the sorted set of the
// owner's neighbors v ≠ k whose avoid-k continuation cost equals the
// minimum b: contribution(v) = 0 if v == dst, else ĉ_v +
// dist_{G−k}(v, dst). neighbors is the owner's ascending adjacency
// view; treesNoK[v] is v's avoid-k tree.
func centralTags(tags []graph.NodeID, g *graph.Graph, neighbors []graph.NodeID, dst, k graph.NodeID, b graph.Cost, treesNoK []graph.Tree) []graph.NodeID {
	for _, v := range neighbors {
		if v == k {
			continue
		}
		var contribution graph.Cost
		if v == dst {
			contribution = 0
		} else {
			dvj := treesNoK[v].Dist[dst]
			if dvj >= graph.Infinity {
				continue
			}
			contribution = g.Cost(v) + dvj
		}
		if contribution == b {
			tags = append(tags, v)
		}
	}
	// AdjView is ascending, so tags are already sorted.
	return tags
}
