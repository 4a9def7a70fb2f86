package faithful

import (
	"repro/internal/fpss"
	"repro/internal/graph"
)

// MirrorCheck is one checker's checkpoint verdict on one principal,
// with what ComputeTables needs to derive the verdict again: the
// checker's DATA1 and its views of the principal's neighbors.
type MirrorCheck struct {
	Checker, Principal       graph.NodeID
	Neighbors                []graph.NodeID
	Costs                    fpss.CostTable
	Views                    []fpss.NeighborView
	Advert                   fpss.NeighborView
	Advertised, Matches      bool
	RoutingHash, PricingHash fpss.Hash
}

// OnMirrorCheck has f see every mirror check of every checkpoint until
// the returned function runs. Runs must not overlap while it is set.
func OnMirrorCheck(f func(MirrorCheck)) (restore func()) {
	testHookMirrorCheck = func(n *Node, m *mirror, c mirrorCheck) {
		f(MirrorCheck{
			Checker:     n.ID(),
			Principal:   m.principal,
			Neighbors:   m.neighbors,
			Costs:       n.CostsView(),
			Views:       m.views,
			Advert:      c.advert,
			Advertised:  c.advertised,
			Matches:     c.matches,
			RoutingHash: c.routingHash,
			PricingHash: c.pricingHash,
		})
	}
	return func() { testHookMirrorCheck = nil }
}
