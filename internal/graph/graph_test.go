package graph

import (
	"errors"
	"fmt"
	"testing"
)

func TestNew(t *testing.T) {
	g := New(2)
	if g.N() != 2 || g.M() != 0 {
		t.Fatalf("N(), M() = %d, %d, want 2, 0", g.N(), g.M())
	}
	for id := NodeID(0); id < 2; id++ {
		if g.Cost(id) != 0 || len(g.Neighbors(id)) != 0 {
			t.Errorf("node %d: cost %d, neighbors %v, want 0 and none", id, g.Cost(id), g.Neighbors(id))
		}
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    NodeID
		wantErr error
	}{
		{"ok", 0, 1, nil},
		{"self loop", 1, 1, ErrSelfLoop},
		{"out of range high", 0, 5, ErrNodeOutOfRange},
		{"out of range negative", -1, 0, ErrNodeOutOfRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.u, tt.v)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("AddEdge(%d,%d) = %v, want %v", tt.u, tt.v, err, tt.wantErr)
			}
		})
	}
}

func TestEdgeIdempotentAndSymmetric(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) = true, want false")
	}
}

func TestSetCost(t *testing.T) {
	g := New(1)
	if err := g.SetCost(0, 42); err != nil {
		t.Fatal(err)
	}
	if g.Cost(0) != 42 {
		t.Errorf("Cost = %d, want 42", g.Cost(0))
	}
	if err := g.SetCost(0, -3); !errors.Is(err, ErrNegativeCost) {
		t.Errorf("SetCost(-3) = %v, want ErrNegativeCost", err)
	}
	if err := g.SetCost(9, 1); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("SetCost out of range = %v, want ErrNodeOutOfRange", err)
	}
}

func TestNamesAndLookup(t *testing.T) {
	g := New(2)
	if err := g.SetName(0, "alpha"); err != nil {
		t.Fatal(err)
	}
	if got := g.Name(0); got != "alpha" {
		t.Errorf("Name(0) = %q, want alpha", got)
	}
	if got := g.Name(1); got != "#1" {
		t.Errorf("Name(1) = %q, want #1", got)
	}
	id, ok := g.ByName("alpha")
	if !ok || id != 0 {
		t.Errorf("ByName(alpha) = %d,%v", id, ok)
	}
	if _, ok := g.ByName("nope"); ok {
		t.Error("ByName(nope) found")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(4)
	for _, v := range []NodeID{3, 1, 2} {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	got := g.Neighbors(0)
	want := []NodeID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.N())
	copy(c.costs, g.costs)
	copy(c.names, g.names)
	for u, nbrs := range g.adj {
		for v := range nbrs {
			c.adj[u][v] = struct{}{}
		}
	}
	return c
}

// WithCosts returns a copy of the graph whose transit-cost vector is
// replaced by costs.
func (g *Graph) WithCosts(costs []Cost) (*Graph, error) {
	if len(costs) != g.N() {
		return nil, fmt.Errorf("graph: cost vector length %d != n %d", len(costs), g.N())
	}
	for _, c := range costs {
		if c < 0 {
			return nil, ErrNegativeCost
		}
	}
	c := g.Clone()
	copy(c.costs, costs)
	return c, nil
}

func TestCloneIsDeep(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1)
	_ = g.SetCost(0, 5)
	_ = g.SetName(0, "x")
	c := g.Clone()
	_ = c.AddEdge(1, 2)
	_ = c.SetCost(0, 9)
	if g.HasEdge(1, 2) {
		t.Error("clone edge leaked into original")
	}
	if g.Cost(0) != 5 {
		t.Error("clone cost leaked into original")
	}
	if c.Name(0) != "x" {
		t.Error("clone lost name")
	}
}

func TestWithCosts(t *testing.T) {
	g := New(2)
	_ = g.AddEdge(0, 1)
	h, err := g.WithCosts([]Cost{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if h.Cost(0) != 3 || h.Cost(1) != 4 {
		t.Error("WithCosts did not apply")
	}
	if g.Cost(0) != 0 {
		t.Error("WithCosts mutated original")
	}
	if _, err := g.WithCosts([]Cost{1}); err == nil {
		t.Error("WithCosts accepted wrong length")
	}
	if _, err := g.WithCosts([]Cost{-1, 2}); !errors.Is(err, ErrNegativeCost) {
		t.Errorf("WithCosts negative = %v, want ErrNegativeCost", err)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(0, 3)
	_ = g.AddEdge(0, 1)
	got := g.Edges()
	want := [][2]NodeID{{0, 1}, {0, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("Edges = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", got, want)
		}
	}
}

// TestCostsCopy pins that WithCosts copies the cost vector it is
// given: editing the vector afterwards leaves the graph alone.
func TestCostsCopy(t *testing.T) {
	cs := []Cost{1, 2}
	g, err := New(2).WithCosts(cs)
	if err != nil {
		t.Fatal(err)
	}
	cs[0] = 99
	if g.Cost(0) != 1 {
		t.Error("WithCosts aliased the cost vector")
	}
}
