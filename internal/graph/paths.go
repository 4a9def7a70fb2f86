package graph

import "math"

// Infinity is the cost reported for unreachable destinations.
const Infinity = Cost(math.MaxInt64 / 4)

// Path is a node sequence from source to destination, inclusive.
type Path []NodeID

// TransitNodes returns the intermediate nodes of the path.
func (p Path) TransitNodes() []NodeID {
	if len(p) <= 2 {
		return nil
	}
	out := make([]NodeID, len(p)-2)
	copy(out, p[1:len(p)-1])
	return out
}

// Contains reports whether the path visits node id (including endpoints).
func (p Path) Contains(id NodeID) bool {
	for _, v := range p {
		if v == id {
			return true
		}
	}
	return false
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Less orders paths lexicographically; used as a deterministic,
// globally consistent tie-break so every node in a distributed
// computation agrees on one lowest-cost path per pair.
func (p Path) Less(q Path) bool {
	for i := 0; i < len(p) && i < len(q); i++ {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return len(p) < len(q)
}

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Diameter returns the maximum hop count over all lowest-cost paths,
// or 0 for graphs with fewer than two nodes. Unreachable pairs do not
// count toward the diameter.
func (g *Graph) Diameter() (int, error) {
	var (
		t Tree
		s Scratch
	)
	maxHops := 0
	for i := 0; i < g.N(); i++ {
		if err := g.SSSP(&t, &s, NodeID(i)); err != nil {
			return 0, err
		}
		for j := range t.Hops {
			if j == i || !t.Reached(NodeID(j)) {
				continue
			}
			if h := int(t.Hops[j]); h > maxHops {
				maxHops = h
			}
		}
	}
	return maxHops, nil
}
