// Package graph provides the network substrate used throughout the
// reproduction: undirected graphs whose nodes carry per-packet transit
// costs, as in the FPSS lowest-cost interdomain-routing model
// (Feigenbaum, Papadimitriou, Sami, Shenker, PODC 2002) that
// Shneidman & Parkes (PODC 2004) extend.
//
// The cost of a path is the sum of the transit costs of its
// intermediate nodes; endpoints transit for free. Biconnectivity is the
// standing assumption of FPSS (it makes VCG payments well defined), so
// the package includes an articulation-point check and generators that
// only emit biconnected graphs.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node in a Graph. IDs are dense, starting at 0.
type NodeID int

// Cost is a per-packet transit cost. Costs are non-negative.
type Cost int64

var (
	// ErrNodeOutOfRange is returned when an operation references a node
	// the graph does not contain.
	ErrNodeOutOfRange = errors.New("graph: node out of range")
	// ErrSelfLoop is returned when an edge would connect a node to itself.
	ErrSelfLoop = errors.New("graph: self loop")
	// ErrNegativeCost is returned when a transit cost is negative.
	ErrNegativeCost = errors.New("graph: negative transit cost")
)

// Graph is an undirected graph with per-node transit costs.
// The zero value is an empty graph; use New to preallocate nodes.
type Graph struct {
	costs []Cost
	adj   []map[NodeID]struct{}
	names []string

	// Flat CSR adjacency, built lazily on the first path query and
	// invalidated by topology mutations. Once built it is immutable, so
	// concurrent read-only queries (parallel all-pairs sweeps) share it.
	csrMu  sync.Mutex
	csrOff []int32
	csrAdj []NodeID
}

// New returns a graph with n nodes, zero transit costs and no edges.
func New(n int) *Graph {
	g := &Graph{
		costs: make([]Cost, n),
		adj:   make([]map[NodeID]struct{}, n),
		names: make([]string, n),
	}
	for i := range g.adj {
		g.adj[i] = make(map[NodeID]struct{})
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.costs) }

// M returns the number of undirected edges.
func (g *Graph) M() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// invalidateCSR drops the flat adjacency after a topology mutation; the
// next query rebuilds it.
func (g *Graph) invalidateCSR() {
	g.csrMu.Lock()
	g.csrOff, g.csrAdj = nil, nil
	g.csrMu.Unlock()
}

// ensureCSR returns the flat adjacency (offsets into a single sorted
// neighbor array), building it if a mutation invalidated it. The
// returned slices are immutable until the next mutation, so concurrent
// queries may hold them without locking.
func (g *Graph) ensureCSR() (off []int32, adj []NodeID) {
	g.csrMu.Lock()
	defer g.csrMu.Unlock()
	if g.csrOff != nil {
		return g.csrOff, g.csrAdj
	}
	n := len(g.adj)
	off = make([]int32, n+1)
	total := 0
	for i, a := range g.adj {
		total += len(a)
		off[i+1] = int32(total)
	}
	adj = make([]NodeID, total)
	for i, a := range g.adj {
		row := adj[off[i]:off[i]]
		for v := range a {
			row = append(row, v)
		}
		slices.Sort(row)
	}
	g.csrOff, g.csrAdj = off, adj
	return off, adj
}

// AdjView returns id's neighbors in ascending order as a view into the
// shared CSR layout. The slice must be treated as read-only; it stays
// valid until the next topology mutation. Use Neighbors for an owned
// copy.
func (g *Graph) AdjView(id NodeID) []NodeID {
	if g.check(id) != nil {
		return nil
	}
	off, adj := g.ensureCSR()
	return adj[off[id]:off[id+1]]
}

func (g *Graph) check(ids ...NodeID) error {
	for _, id := range ids {
		if id < 0 || int(id) >= len(g.costs) {
			return fmt.Errorf("%w: %d (n=%d)", ErrNodeOutOfRange, id, len(g.costs))
		}
	}
	return nil
}

// AddEdge connects u and v. Adding an existing edge is a no-op.
func (g *Graph) AddEdge(u, v NodeID) error {
	if err := g.check(u, v); err != nil {
		return err
	}
	if u == v {
		return ErrSelfLoop
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.invalidateCSR()
	return nil
}

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if g.check(u, v) != nil {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// Cost returns the transit cost of node id.
func (g *Graph) Cost(id NodeID) Cost {
	if g.check(id) != nil {
		return 0
	}
	return g.costs[id]
}

// SetCost updates the transit cost of node id.
func (g *Graph) SetCost(id NodeID, c Cost) error {
	if err := g.check(id); err != nil {
		return err
	}
	if c < 0 {
		return ErrNegativeCost
	}
	g.costs[id] = c
	return nil
}

// SetName attaches a human-readable name to a node (used by the
// Figure-1 topology: A, B, C, D, X, Z).
func (g *Graph) SetName(id NodeID, name string) error {
	if err := g.check(id); err != nil {
		return err
	}
	g.names[id] = name
	return nil
}

// Name returns the node's name, or its numeric ID if unnamed.
func (g *Graph) Name(id NodeID) string {
	if g.check(id) != nil {
		return fmt.Sprintf("#%d", id)
	}
	if g.names[id] == "" {
		return fmt.Sprintf("#%d", id)
	}
	return g.names[id]
}

// ByName returns the ID of the node with the given name.
func (g *Graph) ByName(name string) (NodeID, bool) {
	for i, n := range g.names {
		if n == name {
			return NodeID(i), true
		}
	}
	return 0, false
}

// Neighbors returns the sorted neighbor list of id as an owned copy.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	if g.check(id) != nil {
		return nil
	}
	return slices.Clone(g.AdjView(id))
}

// Edges returns all undirected edges with u < v, sorted.
func (g *Graph) Edges() [][2]NodeID {
	var out [][2]NodeID
	for u := range g.adj {
		for v := range g.adj[u] {
			if NodeID(u) < v {
				out = append(out, [2]NodeID{NodeID(u), v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
