package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// The delta repair's whole contract is byte-identity with scratch SSSP
// under the (cost, hops, lex) order. These tests drive randomized
// churn-like evolutions — leaves, tail joins, carried edges, repair
// edges, cost redraws — and compare every repaired tree label-for-label
// against a from-scratch run, including the avoid-k trees SSSPWithout
// derives from each repaired tree and chained (epoch e from e-1 from
// e-2 ...) repairs. Tiny cost ranges (0, 1) force heavy lexicographic
// tie-breaking, the hardest part to carry.

type evolution struct {
	oldG, newG *Graph
	oldToNew   []NodeID
}

// randomEvolution mutates a random biconnected graph the way a churn
// boundary does: drop up to n/4 nodes (keeping >= 4), renumber
// survivors densely in order, append joiners with two attachment edges
// each, re-biconnect, sprinkle extra survivor edges, redraw some costs.
func randomEvolution(t *testing.T, rng *rand.Rand, n int, maxCost Cost) evolution {
	t.Helper()
	genCost := maxCost
	if genCost < 1 {
		genCost = 1 // the generator rejects a zero range; flatten below
	}
	oldG, err := RandomBiconnected(n, n/2, genCost, rng)
	if err != nil {
		t.Fatalf("RandomBiconnected: %v", err)
	}
	if maxCost == 0 {
		for v := 0; v < n; v++ {
			if err := oldG.SetCost(NodeID(v), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	nLeave := rng.Intn(n/4 + 1)
	if n-nLeave < 4 {
		nLeave = n - 4
	}
	leave := make(map[NodeID]bool)
	for len(leave) < nLeave {
		leave[NodeID(rng.Intn(n))] = true
	}
	oldToNew := make([]NodeID, n)
	var surv []NodeID
	for v := 0; v < n; v++ {
		if leave[NodeID(v)] {
			oldToNew[v] = -1
			continue
		}
		oldToNew[v] = NodeID(len(surv))
		surv = append(surv, NodeID(v))
	}
	nNew := len(surv) + rng.Intn(3)
	newG := New(nNew)
	for w, ov := range surv {
		if err := newG.SetCost(NodeID(w), oldG.Cost(ov)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range oldG.Edges() {
		a, b := oldToNew[e[0]], oldToNew[e[1]]
		if a >= 0 && b >= 0 {
			if err := newG.AddEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j := len(surv); j < nNew; j++ {
		if err := newG.SetCost(NodeID(j), Cost(rng.Int63n(int64(maxCost)+1))); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if err := newG.AddEdge(NodeID(j), NodeID(rng.Intn(j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := RepairBiconnected(newG); err != nil {
		t.Fatalf("RepairBiconnected: %v", err)
	}
	for k := rng.Intn(3); k > 0; k-- {
		u, v := NodeID(rng.Intn(nNew)), NodeID(rng.Intn(nNew))
		if u != v {
			if err := newG.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for w := 0; w < len(surv); w++ {
		if rng.Float64() < 0.25 {
			if err := newG.SetCost(NodeID(w), Cost(rng.Int63n(int64(maxCost)+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return evolution{oldG: oldG, newG: newG, oldToNew: oldToNew}
}

func requireTreesEqual(t *testing.T, label string, got, want *Tree) {
	t.Helper()
	if got.Src != want.Src || len(got.Dist) != len(want.Dist) {
		t.Fatalf("%s: shape mismatch: src %d/%d n %d/%d",
			label, got.Src, want.Src, len(got.Dist), len(want.Dist))
	}
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Hops[v] != want.Hops[v] ||
			got.Parent[v] != want.Parent[v] {
			t.Fatalf("%s: node %d: got (%d,%d,%d) want (%d,%d,%d)",
				label, v,
				got.Dist[v], got.Hops[v], got.Parent[v],
				want.Dist[v], want.Hops[v], want.Parent[v])
		}
	}
}

// checkEvolution repairs every base tree across ev, derives every
// avoid-k tree from the repaired ones, and compares all against
// scratch. Returns the repaired base trees (indexed by new source) so
// chained tests can feed them to the next step.
func checkEvolution(t *testing.T, label string, ev evolution, oldBase []*Tree) []*Tree {
	t.Helper()
	d, err := NewDelta(ev.oldG, ev.newG, ev.oldToNew)
	if err != nil {
		t.Fatalf("%s: NewDelta: %v", label, err)
	}
	n, nOld := ev.newG.N(), ev.oldG.N()
	oldScr, scr, scrWant := &Scratch{}, &Scratch{}, &Scratch{}
	if oldBase == nil {
		oldBase = make([]*Tree, nOld)
		for v := 0; v < nOld; v++ {
			oldBase[v] = &Tree{}
			if err := ev.oldG.SSSP(oldBase[v], oldScr, NodeID(v)); err != nil {
				t.Fatalf("%s: old SSSP(%d): %v", label, v, err)
			}
		}
	}
	base := make([]*Tree, n)
	want := &Tree{}
	for src := 0; src < n; src++ {
		var old *Tree
		if o := d.NewToOld(NodeID(src)); o >= 0 {
			old = oldBase[o]
		}
		base[src] = &Tree{}
		if err := ev.newG.SSSPDelta(base[src], scr, NodeID(src), old, d); err != nil {
			t.Fatalf("%s: SSSPDelta(%d): %v", label, src, err)
		}
		if err := ev.newG.SSSP(want, scrWant, NodeID(src)); err != nil {
			t.Fatalf("%s: SSSP(%d): %v", label, src, err)
		}
		requireTreesEqual(t, fmt.Sprintf("%s src=%d", label, src), base[src], want)
	}
	// Avoid-k variants: derive every (src, k) avoid tree from the
	// repaired base tree, the path Central.Evolve runs, and compare it
	// against a scratch run over G−k.
	got := &Tree{}
	for k := 0; k < n; k++ {
		gk, err := ev.newG.WithoutNode(NodeID(k))
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < n; src++ {
			if src == k {
				continue
			}
			if err := ev.newG.SSSPWithout(got, scr, base[src], NodeID(k)); err != nil {
				t.Fatalf("%s: SSSPWithout(%d,%d): %v", label, src, k, err)
			}
			if err := gk.SSSP(want, scrWant, NodeID(src)); err != nil {
				t.Fatalf("%s: SSSP(%d) over G−%d: %v", label, src, k, err)
			}
			requireTreesEqual(t, fmt.Sprintf("%s src=%d avoid=%d", label, src, k), got, want)
		}
	}
	return base
}

func TestSSSPDeltaRandomEvolutions(t *testing.T) {
	for _, n := range []int{6, 10, 16} {
		for _, maxCost := range []Cost{0, 1, 3, 50} {
			for seed := int64(0); seed < 8; seed++ {
				label := fmt.Sprintf("n=%d c=%d s=%d", n, maxCost, seed)
				rng := rand.New(rand.NewSource(seed*977 + int64(n)*31 + int64(maxCost)))
				ev := randomEvolution(t, rng, n, maxCost)
				checkEvolution(t, label, ev, nil)
			}
		}
	}
}

// TestSSSPDeltaChained repairs repaired trees: epoch e's base trees are
// built by SSSPDelta from epoch e-1's repaired trees, mirroring how the
// churn layer chains central states, and every step is checked against
// scratch.
func TestSSSPDeltaChained(t *testing.T) {
	for _, maxCost := range []Cost{1, 20} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1543 + int64(maxCost)))
			ev := randomEvolution(t, rng, 12, maxCost)
			base := checkEvolution(t, fmt.Sprintf("chain0 c=%d s=%d", maxCost, seed), ev, nil)
			cur := ev.newG
			for step := 1; step <= 3; step++ {
				next := evolveExisting(t, rng, cur, maxCost)
				label := fmt.Sprintf("chain%d c=%d s=%d", step, maxCost, seed)
				base = checkEvolution(t, label, next, base)
				cur = next.newG
			}
		}
	}
}

// evolveExisting is randomEvolution applied to a given graph instead of
// a freshly generated one.
func evolveExisting(t *testing.T, rng *rand.Rand, g *Graph, maxCost Cost) evolution {
	t.Helper()
	n := g.N()
	nLeave := rng.Intn(n/4 + 1)
	if n-nLeave < 4 {
		nLeave = n - 4
	}
	leave := make(map[NodeID]bool)
	for len(leave) < nLeave {
		leave[NodeID(rng.Intn(n))] = true
	}
	oldToNew := make([]NodeID, n)
	var surv []NodeID
	for v := 0; v < n; v++ {
		if leave[NodeID(v)] {
			oldToNew[v] = -1
			continue
		}
		oldToNew[v] = NodeID(len(surv))
		surv = append(surv, NodeID(v))
	}
	nNew := len(surv) + rng.Intn(3)
	newG := New(nNew)
	for w, ov := range surv {
		if err := newG.SetCost(NodeID(w), g.Cost(ov)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges() {
		a, b := oldToNew[e[0]], oldToNew[e[1]]
		if a >= 0 && b >= 0 {
			if err := newG.AddEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j := len(surv); j < nNew; j++ {
		if err := newG.SetCost(NodeID(j), Cost(rng.Int63n(int64(maxCost)+1))); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if err := newG.AddEdge(NodeID(j), NodeID(rng.Intn(j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := RepairBiconnected(newG); err != nil {
		t.Fatalf("RepairBiconnected: %v", err)
	}
	for w := 0; w < len(surv); w++ {
		if rng.Float64() < 0.25 {
			if err := newG.SetCost(NodeID(w), Cost(rng.Int63n(int64(maxCost)+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return evolution{oldG: g, newG: newG, oldToNew: oldToNew}
}

// TestSSSPDeltaIdentity pins the no-change fast path: an identity delta
// must reproduce the tree by pure carry (and still match scratch).
func TestSSSPDeltaIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := RandomBiconnected(12, 6, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	oldToNew := make([]NodeID, g.N())
	for v := range oldToNew {
		oldToNew[v] = NodeID(v)
	}
	d, err := NewDelta(g, g, oldToNew)
	if err != nil {
		t.Fatal(err)
	}
	scr := &Scratch{}
	old, got, want := &Tree{}, &Tree{}, &Tree{}
	for src := 0; src < g.N(); src++ {
		if err := g.SSSP(old, scr, NodeID(src)); err != nil {
			t.Fatal(err)
		}
		if err := g.SSSPDelta(got, scr, NodeID(src), old, d); err != nil {
			t.Fatal(err)
		}
		if err := g.SSSP(want, scr, NodeID(src)); err != nil {
			t.Fatal(err)
		}
		requireTreesEqual(t, fmt.Sprintf("identity src=%d", src), got, want)
	}
}

func TestNewDeltaValidation(t *testing.T) {
	g4, g5 := New(4), New(5)
	if _, err := NewDelta(g4, g5, []NodeID{0, 1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewDelta(g4, g5, []NodeID{0, 2, 1, 3}); err == nil {
		t.Fatal("non-monotone remap accepted")
	}
	if _, err := NewDelta(g4, g5, []NodeID{0, 1, 1, 2}); err == nil {
		t.Fatal("non-injective remap accepted")
	}
	if _, err := NewDelta(g4, g5, []NodeID{0, 1, 2, 9}); err == nil {
		t.Fatal("out-of-range remap accepted")
	}
	if _, err := NewDelta(g4, g5, []NodeID{-1, 0, -1, 3}); err != nil {
		t.Fatal("valid sparse remap rejected")
	}
}

// TestSSSPDeltaFallbacks pins the documented degradation paths: nil
// delta or old tree, joiner source, and a foreign old tree all fall
// back to scratch; aliasing t with old is an error.
func TestSSSPDeltaFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ev := randomEvolution(t, rng, 10, 5)
	d, err := NewDelta(ev.oldG, ev.newG, ev.oldToNew)
	if err != nil {
		t.Fatal(err)
	}
	n := ev.newG.N()
	scr := &Scratch{}
	got, want := &Tree{}, &Tree{}
	if err := ev.newG.SSSPDelta(got, scr, 0, nil, d); err != nil {
		t.Fatal(err)
	}
	if err := ev.newG.SSSP(want, scr, 0); err != nil {
		t.Fatal(err)
	}
	requireTreesEqual(t, "nil old tree", got, want)

	// A tree whose source does not map to src must be ignored, not used.
	oldT := &Tree{}
	oldScr := &Scratch{}
	if err := ev.oldG.SSSP(oldT, oldScr, 0); err != nil {
		t.Fatal(err)
	}
	for src := 1; src < n; src++ {
		if d.NewToOld(NodeID(src)) == 0 {
			continue
		}
		if err := ev.newG.SSSPDelta(got, scr, NodeID(src), oldT, d); err != nil {
			t.Fatal(err)
		}
		if err := ev.newG.SSSP(want, scr, NodeID(src)); err != nil {
			t.Fatal(err)
		}
		requireTreesEqual(t, fmt.Sprintf("foreign tree src=%d", src), got, want)
		break
	}
	if err := ev.newG.SSSPDelta(oldT, scr, 0, oldT, d); err == nil {
		t.Fatal("aliased target accepted")
	}
}
