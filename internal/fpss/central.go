package fpss

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
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
// The computation is batched and parallel: one parent-pointer SSSP
// tree per source for the base routes, then, for every node k that
// actually appears as a transit node on some LCP (nodes that are never
// transit need no marginal economy), one avoid-k tree per source,
// derived from that source's base tree by relabelling only k's subtree
// (graph.SSSPWithout). Both stages fan out over a worker pool with
// per-worker scratch. Results are deterministic — byte-identical to
// the sequential reference — because every job writes only its own
// slot.
func ComputeCentral(g *graph.Graph) (*Solution, error) {
	c, err := computeCentral(g, nil, nil)
	if err != nil {
		return nil, err
	}
	return c.Sol, nil
}

// computeCentral is the shared core behind ComputeCentral (prev and d
// nil) and Central.Evolve. The two differ only in how the base trees
// are built: from scratch, or repaired from prev's through d with
// SSSPDelta. The avoid-k trees always derive from the new base trees,
// so transit detection, the avoid sweep and assembly are the same code
// in both forms, and SSSPDelta's byte-identity guarantee keeps them
// indistinguishable in the output.
func computeCentral(g *graph.Graph, prev *Central, d *graph.Delta) (*Central, error) {
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

	// Base trees: one full SSSP per source, in parallel. With a delta,
	// each surviving source repairs its previous tree instead (joiners
	// and nil deltas fall through to a scratch run inside SSSPDelta).
	base := make([]*graph.Tree, n)
	err := parallelFor(n, func(s *graph.Scratch, i int) error {
		var old *graph.Tree
		if prev != nil {
			if o := d.NewToOld(graph.NodeID(i)); o >= 0 {
				old = prev.base[o]
			}
		}
		t := &graph.Tree{}
		if err := g.SSSPDelta(t, s, graph.NodeID(i), old, d); err != nil {
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
	isTransit := make([]bool, n)
	transitCount := 0
	for i := 0; i < n; i++ {
		t := base[i]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if !t.Reached(graph.NodeID(j)) {
				return nil, fmt.Errorf("fpss: no path %d→%d despite biconnectivity", i, j)
			}
			if p := t.Parent[j]; p != -1 && graph.NodeID(p) != t.Src && !isTransit[p] {
				isTransit[p] = true
				transitCount++
			}
		}
	}

	// Avoid-k trees for transit nodes only: avoidTrees[k][v] is the
	// lowest-cost route tree from v in G−k, derived from base[v] by
	// relabelling k's subtree. One parallel job per k so per-job work
	// (n−1 derivations) amortizes scheduling; tag computation needs rows
	// for every source v ≠ k, so the sweep is full. Every job reads the
	// shared base trees and writes only its own row.
	avoidTrees := make([][]*graph.Tree, n)
	if transitCount > 0 {
		jobs := make([]int, 0, transitCount)
		for k := 0; k < n; k++ {
			if isTransit[k] {
				jobs = append(jobs, k)
			}
		}
		err = parallelFor(len(jobs), func(s *graph.Scratch, ji int) error {
			k := jobs[ji]
			trees := make([]*graph.Tree, n)
			for v := 0; v < n; v++ {
				if v == k {
					continue
				}
				t := &graph.Tree{}
				if err := g.SSSPWithout(t, s, base[v], graph.NodeID(k)); err != nil {
					return fmt.Errorf("all pairs without %d: %w", k, err)
				}
				trees[v] = t
			}
			avoidTrees[k] = trees
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Assemble per-source routing and pricing tables, one parallel job
	// per source (each writes only its own slot).
	routing := make([]RoutingTable, n)
	pricing := make([]PricingTable, n)
	err = parallelFor(n, func(_ *graph.Scratch, i int) error {
		src := graph.NodeID(i)
		t := base[i]
		// One CSR-view fetch (and csrMu acquisition) per source job,
		// not per price entry.
		neighbors := g.AdjView(src)
		rt := make(RoutingTable, n)
		pt := make(PricingTable, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dst := graph.NodeID(j)
			p := t.PathTo(dst)
			rt[dst] = RouteEntry{Dest: dst, Cost: t.Dist[j], Path: p}
			transits := p.TransitNodes()
			if len(transits) == 0 {
				continue
			}
			row := make(map[graph.NodeID]PriceEntry, len(transits))
			for _, k := range transits {
				noK := avoidTrees[k][i]
				if noK == nil || !noK.Reached(dst) {
					return fmt.Errorf("fpss: no avoid-%d path %d→%d", k, i, j)
				}
				b := noK.Dist[dst]
				row[k] = PriceEntry{
					Transit: k,
					Price:   g.Cost(k) + b - t.Dist[j],
					Avoid:   noK.PathTo(dst),
					Tags:    centralTags(g, neighbors, dst, k, b, avoidTrees[k]),
				}
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
	return &Central{Sol: sol, base: base}, nil
}

// centralWorkers overrides the pricing-core pool size when positive;
// zero means runtime.NumCPU(). Tests pin it to exercise the parallel
// path regardless of the host's core count.
var centralWorkers int

// parallelFor runs fn(scratch, i) for every i in [0, n) over a worker
// pool (the experiments/runner.go idiom). Each worker owns a scratch,
// every job writes only index-i state, and the earliest failing
// index's error is reported — so results and errors are independent of
// scheduling.
func parallelFor(n int, fn func(s *graph.Scratch, i int) error) error {
	if n == 0 {
		return nil
	}
	workers := centralWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		s := graph.NewScratch(0)
		for i := 0; i < n; i++ {
			errs[i] = fn(s, i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				s := graph.NewScratch(0)
				for i := range jobs {
					errs[i] = fn(s, i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// centralTags returns the sorted set of the owner's neighbors v ≠ k
// whose avoid-k continuation cost equals the minimum b:
// contribution(v) = 0 if v == dst, else ĉ_v + dist_{G−k}(v, dst).
// neighbors is the owner's ascending adjacency view.
func centralTags(g *graph.Graph, neighbors []graph.NodeID, dst, k graph.NodeID, b graph.Cost, treesNoK []*graph.Tree) []graph.NodeID {
	tags := make([]graph.NodeID, 0, len(neighbors))
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

// VCGPayment returns the centralized per-packet VCG payment owed by
// src to transit k for traffic to dst, straight from the definition.
// It is the oracle used by tests. Both underlying searches exit early
// once dst settles.
func VCGPayment(g *graph.Graph, src, dst, k graph.NodeID) (graph.Cost, error) {
	p, d, err := g.ShortestPath(src, dst)
	if err != nil {
		return 0, err
	}
	if !p.Contains(k) || k == src || k == dst {
		return 0, nil // not a transit node on the LCP: no payment
	}
	_, avoidCost, err := g.ShortestPathAvoiding(src, dst, k)
	if err != nil {
		return 0, err
	}
	return g.Cost(k) + avoidCost - d, nil
}
