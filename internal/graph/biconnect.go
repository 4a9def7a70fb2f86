package graph

// IsConnected reports whether the graph is connected (vacuously true
// for graphs with fewer than two nodes).
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := make([]NodeID, 1, n) // a node is pushed once, so it never grows
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// ArticulationPoints returns the cut vertices of the graph (Tarjan's
// algorithm, iterative to avoid recursion limits on large graphs).
func (g *Graph) ArticulationPoints() []NodeID {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]NodeID, n)
	isArt := make([]bool, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0

	type frame struct {
		u    NodeID
		nbrs []NodeID
		idx  int
	}

	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		rootChildren := 0
		disc[start] = timer
		low[start] = timer
		timer++
		stack := []frame{{u: NodeID(start), nbrs: g.Neighbors(NodeID(start))}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(f.nbrs) {
				v := f.nbrs[f.idx]
				f.idx++
				switch {
				case disc[v] == -1:
					parent[v] = f.u
					if f.u == NodeID(start) {
						rootChildren++
					}
					disc[v] = timer
					low[v] = timer
					timer++
					stack = append(stack, frame{u: v, nbrs: g.Neighbors(v)})
				case v != parent[f.u]:
					if disc[v] < low[f.u] {
						low[f.u] = disc[v]
					}
				}
				continue
			}
			// Post-order: propagate low to parent.
			stack = stack[:len(stack)-1]
			if p := parent[f.u]; p != -1 {
				if low[f.u] < low[p] {
					low[p] = low[f.u]
				}
				if p != NodeID(start) && low[f.u] >= disc[p] {
					isArt[p] = true
				}
			}
		}
		if rootChildren > 1 {
			isArt[start] = true
		}
	}

	var out []NodeID
	for i, a := range isArt {
		if a {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// IsBiconnected reports whether the graph is connected, has at least
// three nodes, and has no articulation points — the standing FPSS
// assumption that keeps VCG payments finite.
func (g *Graph) IsBiconnected() bool {
	if g.N() < 3 {
		return false
	}
	return g.IsConnected() && len(g.ArticulationPoints()) == 0
}
