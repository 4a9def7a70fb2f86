package fpss

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// computeCentralOracle is the pre-optimization ComputeCentral, kept
// verbatim as a differential oracle: sequential, one G−k copy plus a
// full path-materializing all-pairs sweep per node, map-based avoid
// sets, sort.Slice tag sorts. TestDifferentialComputeCentral proves
// the batched parallel core produces byte-identical tables.
func computeCentralOracle(g *graph.Graph) (*Solution, error) {
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
	dist, paths, err := allPairs(g)
	if err != nil {
		return nil, fmt.Errorf("all pairs: %w", err)
	}

	avoidDist := make(map[graph.NodeID][][]graph.Cost, n)
	avoidPath := make(map[graph.NodeID][][]graph.Path, n)
	for k := 0; k < n; k++ {
		kid := graph.NodeID(k)
		d, p, err := allPairs(withoutNode(g, kid))
		if err != nil {
			return nil, fmt.Errorf("all pairs without %d: %w", k, err)
		}
		avoidDist[kid] = d
		avoidPath[kid] = p
	}

	for i := 0; i < n; i++ {
		src := graph.NodeID(i)
		rt := make(RoutingTable, n)
		pt := make(PricingTable, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dst := graph.NodeID(j)
			p := paths[i][j]
			if p == nil {
				return nil, fmt.Errorf("fpss: no path %d→%d despite biconnectivity", i, j)
			}
			rt[dst] = RouteEntry{Cost: dist[i][j], Path: slices.Clone(p)}
			transits := p.TransitNodes()
			if len(transits) == 0 {
				continue
			}
			row := make(map[graph.NodeID]PriceEntry, len(transits))
			for _, k := range transits {
				witness := avoidPath[k][i][j]
				if witness == nil {
					return nil, fmt.Errorf("fpss: no avoid-%d path %d→%d", k, i, j)
				}
				b := avoidDist[k][i][j]
				row[k] = PriceEntry{
					Transit: k,
					Price:   g.Cost(k) + b - dist[i][j],
					Avoid:   slices.Clone(witness),
					Tags:    oracleTags(g, src, dst, k, b, avoidDist[k]),
				}
			}
			pt[dst] = row
		}
		sol.Routing[src] = rt
		sol.Pricing[src] = pt
	}
	return sol, nil
}

// withoutNode returns G−k: a copy of g's costs and edges in which node
// k keeps its ID but has no edges, so its routes avoid k.
func withoutNode(g *graph.Graph, k graph.NodeID) *graph.Graph {
	gk := graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		_ = gk.SetCost(graph.NodeID(v), g.Cost(graph.NodeID(v)))
	}
	for _, e := range g.Edges() {
		if e[0] != k && e[1] != k {
			_ = gk.AddEdge(e[0], e[1])
		}
	}
	return gk
}

// allPairs returns g's lowest-cost distance and route matrices, one
// SSSP per source. paths[i][j] is nil on the diagonal and for
// unreachable pairs.
func allPairs(g *graph.Graph) (dist [][]graph.Cost, paths [][]graph.Path, err error) {
	var (
		t graph.Tree
		s graph.Scratch
	)
	n := g.N()
	dist = make([][]graph.Cost, n)
	paths = make([][]graph.Path, n)
	for i := 0; i < n; i++ {
		if err := g.SSSP(&t, &s, graph.NodeID(i)); err != nil {
			return nil, nil, err
		}
		dist[i] = append([]graph.Cost(nil), t.Dist...)
		paths[i] = make([]graph.Path, n)
		for j := range paths[i] {
			if j != i {
				paths[i][j] = t.AppendPathTo(nil, graph.NodeID(j))
			}
		}
	}
	return dist, paths, nil
}

// VCGPayment returns the centralized per-packet VCG payment owed by
// src to transit k for traffic to dst, straight from the definition:
// ĉ_k + cost(LCP(src, dst) in G−k) − cost(LCP(src, dst)), and zero
// when k is not a transit node of the LCP.
func VCGPayment(g *graph.Graph, src, dst, k graph.NodeID) (graph.Cost, error) {
	var (
		t graph.Tree
		s graph.Scratch
	)
	if err := g.SSSP(&t, &s, src); err != nil {
		return 0, err
	}
	if !t.Reached(dst) {
		return 0, fmt.Errorf("fpss: no path %d→%d", src, dst)
	}
	if !t.AppendPathTo(nil, dst).Contains(k) || k == src || k == dst {
		return 0, nil // not a transit node on the LCP: no payment
	}
	d := t.Dist[dst]
	if err := withoutNode(g, k).SSSP(&t, &s, src); err != nil {
		return 0, err
	}
	if !t.Reached(dst) {
		return 0, fmt.Errorf("fpss: no avoid-%d path %d→%d", k, src, dst)
	}
	return g.Cost(k) + t.Dist[dst] - d, nil
}

// oracleTags is the pre-optimization centralTags (Neighbors copy,
// append, sort.Slice).
func oracleTags(g *graph.Graph, src, dst, k graph.NodeID, b graph.Cost, distNoK [][]graph.Cost) []graph.NodeID {
	var tags []graph.NodeID
	for _, v := range g.Neighbors(src) {
		if v == k {
			continue
		}
		var contribution graph.Cost
		if v == dst {
			contribution = 0
		} else {
			dvj := distNoK[v][dst]
			if dvj >= graph.Infinity {
				continue
			}
			contribution = g.Cost(v) + dvj
		}
		if contribution == b {
			tags = append(tags, v)
		}
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

func solutionsIdentical(t *testing.T, seed int, want, got *Solution) {
	t.Helper()
	if len(want.Costs) != len(got.Costs) {
		t.Fatalf("seed %d: cost table size %d != %d", seed, len(got.Costs), len(want.Costs))
	}
	if want.Costs.HashCosts() != got.Costs.HashCosts() {
		t.Fatalf("seed %d: cost table hash mismatch", seed)
	}
	for id, rt := range want.Routing {
		ort := got.Routing[id]
		if !rt.Equal(ort) {
			t.Fatalf("seed %d: routing table of %d differs", seed, id)
		}
		if rt.HashRouting() != ort.HashRouting() {
			t.Fatalf("seed %d: routing hash of %d differs", seed, id)
		}
	}
	for id, pt := range want.Pricing {
		opt := got.Pricing[id]
		if !pt.Equal(opt) {
			t.Fatalf("seed %d: pricing table of %d differs (tags/witnesses included)", seed, id)
		}
		if pt.HashPricing() != opt.HashPricing() {
			t.Fatalf("seed %d: pricing hash of %d differs", seed, id)
		}
	}
	if len(want.Routing) != len(got.Routing) || len(want.Pricing) != len(got.Pricing) {
		t.Fatalf("seed %d: table counts differ", seed)
	}
}

// TestDifferentialComputeCentral checks the batched, parallel pricing
// core against the sequential pre-optimization oracle on 200+ random
// seeded graphs up to n=12, six PrefAttach, TwoTier and Waxman graphs
// at n=32–48, and Figure 1: routes, costs, witness paths, identity
// tags, and the canonical table hashes the bank compares must all be
// byte-identical.
func TestDifferentialComputeCentral(t *testing.T) {
	check := func(seed int, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := computeCentralOracle(g)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		got, err := ComputeCentral(g)
		if err != nil {
			t.Fatalf("seed %d: new: %v", seed, err)
		}
		solutionsIdentical(t, seed, want, got)
	}
	const cases = 200
	for seed := 0; seed < cases; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 4 + rng.Intn(9) // 4..12
		var (
			g   *graph.Graph
			err error
		)
		switch seed % 3 {
		case 0:
			// Low max cost forces frequent route ties.
			g, err = graph.RandomBiconnected(n, n, 3, rng)
		case 1:
			g, err = graph.RingWithChords(n, n/2, 8, rng)
		default:
			g, err = graph.RandomBiconnected(n, 2*n, 20, rng)
		}
		check(seed, g, err)
	}
	// Larger Internet-like families, where k's subtree in another
	// source's tree runs several levels deep and the avoid-k
	// derivation relabels more than a leaf.
	for seed := 1000; seed < 1006; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 32 + rng.Intn(17) // 32..48
		var (
			g   *graph.Graph
			err error
		)
		switch seed % 3 {
		case 0:
			g, err = graph.PreferentialAttachment(n, 2, graph.UniformCost(5), rng)
		case 1:
			g, err = graph.TwoTier(4+seed%3, n/(4+seed%3), graph.UniformCost(4), rng)
		default:
			g, err = graph.Waxman(n, 0.4, 0.2, graph.UniformCost(8), rng)
		}
		check(seed, g, err)
	}
	// The paper's own Figure-1 topology, for good measure.
	check(-1, graph.Figure1(), nil)
}

// TestComputeCentralParallelDeterministic pins the worker pool wide
// open and checks the fan-out still produces byte-identical tables —
// with GOMAXPROCS at 1 the default pool would otherwise never take the
// parallel branch.
func TestComputeCentralParallelDeterministic(t *testing.T) {
	defer func() { centralWorkers = 0 }()
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		g, err := graph.RandomBiconnected(6+seed%8, 10, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		centralWorkers = 1
		want, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		centralWorkers = 8
		got, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		solutionsIdentical(t, seed, want, got)
	}
}

// TestCentralSlicesCapped checks that every route path, witness path
// and tag set of a ComputeCentral solution is capped at its length.
// They are carved side by side from one arena, so an append to an
// uncapped one would overwrite its neighbour.
func TestCentralSlicesCapped(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.PreferentialAttachment(24+int(seed), 2, graph.UniformCost(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		for src, rt := range sol.Routing {
			for dst, e := range rt.All() {
				if cap(e.Path) != len(e.Path) {
					t.Fatalf("seed %d: route %d→%d has cap %d, len %d", seed, src, dst, cap(e.Path), len(e.Path))
				}
			}
		}
		for src, pt := range sol.Pricing {
			for dst, row := range pt.All() {
				for k, e := range row {
					if cap(e.Avoid) != len(e.Avoid) || cap(e.Tags) != len(e.Tags) {
						t.Fatalf("seed %d: entry (%d, %d, %d) has witness cap/len %d/%d, tags %d/%d",
							seed, src, dst, k, cap(e.Avoid), len(e.Avoid), cap(e.Tags), len(e.Tags))
					}
				}
			}
		}
	}
}

// FuzzCentral turns bytes into a graph — the first byte picks 3 ≤ n ≤
// 14, the next n bytes the costs 0–3, and every following pair an edge
// — and skips it unless it is biconnected. It checks ComputeCentral on
// one worker and on three against the sequential oracle.
func FuzzCentral(f *testing.F) {
	f.Add([]byte{1, 1, 0, 2, 1, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 3 + int(data[0])%12
		data = data[1:]
		g := graph.New(n)
		for v := 0; v < n && v < len(data); v++ {
			_ = g.SetCost(graph.NodeID(v), graph.Cost(data[v]%4))
		}
		if len(data) > n {
			data = data[n:]
		} else {
			data = nil
		}
		for i := 0; i+1 < len(data); i += 2 {
			if u, v := graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n); u != v {
				_ = g.AddEdge(u, v)
			}
		}
		if !g.IsBiconnected() {
			return
		}
		want, err := computeCentralOracle(g)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		defer func() { centralWorkers = 0 }()
		for _, workers := range []int{1, 3} {
			centralWorkers = workers
			got, err := ComputeCentral(g)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			solutionsIdentical(t, workers, want, got)
		}
	})
}
