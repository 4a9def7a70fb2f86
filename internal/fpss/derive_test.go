package fpss

import (
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzDerivation drives one principal's Derivation through a sequence
// of neighbor-view replacements on a random biconnected graph. Each op
// byte picks a neighbor (high bits) and a replacement (low three bits):
// the neighbor's converged central tables, or an edit of its current
// view that re-publishes a destination's pricing row (or its route,
// when the view has no rows) as an equal copy, drops a destination,
// changes a route cost, changes only a price, changes only the tags,
// or adds a route through the principal; the last kind instead learns
// a missing DATA1 cost. After every step the derived tables must equal
// ComputeTables over the same views, Derive must report a change
// exactly when they moved, the previous step's tables must hash as
// they did, so nothing was edited in place, and no route or avoid-k
// witness may pass through the principal (the path vector's loop
// rule; op kind 6 offers such routes). SetView diffs by identity,
// so an equal copy must mark its destination dirty and still derive no
// change.
func FuzzDerivation(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x08, 0x10, 0x03, 0x04, 0x05, 0x06, 0x02, 0x07, 0x0b, 0x0c, 0x0d})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g, err := graph.RandomBiconnected(n, rng.Intn(n), 9, rng)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ComputeCentral(g)
		if err != nil {
			t.Fatal(err)
		}
		self := graph.NodeID(rng.Intn(n))
		neighbors := g.Neighbors(self)
		// Start with some declared costs still unknown, as when updates
		// outrun the phase-1 flood; op kind 7 learns them one by one.
		costs := make(CostTable, n)
		var unknown []graph.NodeID
		for id, c := range sol.Costs {
			if id != self && rng.Intn(4) == 0 {
				unknown = append(unknown, id)
				continue
			}
			costs[id] = c
		}
		slices.Sort(unknown)

		d := NewDerivation(self, neighbors)
		views := make([]NeighborView, len(neighbors))
		step := func(op int) bool {
			prevR, prevP := d.Routing(), d.Pricing()
			hashR, hashP := prevR.HashRouting(), prevP.HashPricing()
			changed := d.Derive(costs, nil)
			wantR, wantP := ComputeTables(new(ComputeScratch), self, neighbors, costs, views)
			if !d.Routing().Equal(wantR) || !d.Pricing().Equal(wantP) {
				t.Fatalf("op %d: derived tables differ from the full computation\nrouting %v\nwant    %v\npricing %v\nwant    %v",
					op, d.Routing(), wantR, d.Pricing(), wantP)
			}
			if moved := !prevR.Equal(wantR) || !prevP.Equal(wantP); changed != moved {
				t.Fatalf("op %d: Derive reported changed=%v, tables moved=%v", op, changed, moved)
			}
			if prevR.HashRouting() != hashR || prevP.HashPricing() != hashP {
				t.Fatalf("op %d: the previous tables were edited in place", op)
			}
			if loop := revisit(self, d.Routing(), d.Pricing()); loop != "" {
				t.Fatalf("op %d: %s", op, loop)
			}
			return changed
		}
		step(-1)
		for i, op := range ops {
			at := int(op>>3) % len(neighbors)
			v := neighbors[at]
			if op&7 == 7 {
				if len(unknown) > 0 {
					costs[unknown[0]] = sol.Costs[unknown[0]]
					unknown = unknown[1:]
					d.MarkAll()
				}
				step(i)
				continue
			}
			view, copied := editView(rng, op&7, self, v, views[at], sol)
			views[at] = view
			d.SetView(v, view)
			if copied >= 0 && !d.all && !d.dirty[copied] {
				t.Fatalf("op %d: an equal copy of destination %d left it clean", i, copied)
			}
			if changed := step(i); copied >= 0 && changed {
				t.Fatalf("op %d: an equal copy of destination %d changed the tables", i, copied)
			}
		}
	})
}

// editView returns the replacement of neighbor v's view cur for one
// fuzz op kind, and the destination it re-published as an equal copy
// (-1 for every other kind). Edits are copy-on-write, as the protocol's
// tables are: cur and the central solution are never modified.
func editView(rng *rand.Rand, kind byte, self, v graph.NodeID, cur NeighborView, sol *Solution) (NeighborView, graph.NodeID) {
	if kind == 0 || cur.Routing.Len() == 0 {
		return NeighborView{Routing: sol.Routing[v], Pricing: sol.Pricing[v]}, -1
	}
	next := NeighborView{Routing: slices.Clone(cur.Routing), Pricing: slices.Clone(cur.Pricing)}
	if next.Pricing == nil {
		next.Pricing = make(PricingTable, len(next.Routing))
	}
	pick := func(ids []graph.NodeID) graph.NodeID {
		slices.Sort(ids)
		return ids[rng.Intn(len(ids))]
	}
	j := pick(keys(cur.Routing.All()))
	switch kind {
	case 1: // re-publish a pricing row, or a route without one, as an equal copy
		if rows := keys(cur.Pricing.All()); len(rows) > 0 {
			j = pick(rows)
			next.Pricing[j] = maps.Clone(cur.Pricing[j])
		} else {
			e := next.Routing[j]
			e.Path = slices.Clone(e.Path)
			next.Routing[j] = e
		}
		return next, j
	case 2: // drop a destination
		next.Routing[j] = RouteEntry{}
		next.Pricing[j] = nil
	case 3: // change a route cost
		e := next.Routing[j]
		e.Cost = graph.Cost(rng.Intn(20))
		next.Routing[j] = e
	case 4, 5: // change only a price, or only the tags
		if len(keys(cur.Pricing.All())) == 0 {
			break
		}
		j = pick(keys(cur.Pricing.All()))
		row := maps.Clone(cur.Pricing[j])
		k := pick(slices.Collect(maps.Keys(row)))
		e := row[k]
		if kind == 4 {
			e.Price += graph.Cost(1 + rng.Intn(5))
		} else {
			e.Tags = []graph.NodeID{pick(keys(sol.Routing[v].All()))}
		}
		row[k] = e
		next.Pricing[j] = row
	case 6: // add a route through the principal
		if j == self || j == v {
			break
		}
		base := sol.Routing[self][j].Path
		path := append(graph.Path{v}, base...)
		next.Routing[j] = RouteEntry{Cost: graph.Cost(rng.Intn(20)), Path: path}
	}
	return next, -1
}

// revisit describes the first route or avoid-k witness in self's
// tables that visits self past its first hop, or returns "".
func revisit(self graph.NodeID, routing RoutingTable, pricing PricingTable) string {
	for j, e := range routing.All() {
		if e.Path[1:].Contains(self) {
			return fmt.Sprintf("route to %d revisits %d: %v", j, self, e.Path)
		}
	}
	for j, row := range pricing.All() {
		for _, k := range slices.Sorted(maps.Keys(row)) {
			if w := row[k].Avoid; w[1:].Contains(self) {
				return fmt.Sprintf("avoid-%d witness to %d revisits %d: %v", k, j, self, w)
			}
		}
	}
	return ""
}

// keys collects the destinations a table's All yields, ascending.
func keys[V any](all iter.Seq2[graph.NodeID, V]) []graph.NodeID {
	var ids []graph.NodeID
	for j := range all {
		ids = append(ids, j)
	}
	return ids
}
