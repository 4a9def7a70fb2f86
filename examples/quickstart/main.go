// Quickstart: build the paper's Figure-1 network, run the faithful
// interdomain-routing protocol end to end, and print the green-lit
// routing/pricing tables and realized utilities.
package main

import (
	"fmt"
	"log"

	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
)

func main() {
	// The example network of the paper's Figure 1: six autonomous
	// systems with per-packet transit costs.
	g := graph.Figure1()

	// Run the extended FPSS specification: cost flood, routing and
	// pricing construction mirrored by checker nodes, bank checkpoint,
	// then the execution phase with all-to-all traffic.
	res, err := faithful.Run(faithful.Config{
		Graph:              g,
		Traffic:            fpss.AllToAllTraffic(g.N(), 1),
		DeliveryValue:      10_000,
		UndeliveredPenalty: 10_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("green-lit: %v (construction used %d messages)\n\n",
		res.Completed, res.Construction.Sent)

	// Every node converged to the same answers the centralized VCG
	// mechanism would compute. Show X's view.
	x, _ := g.ByName("X")
	z, _ := g.ByName("Z")
	route := res.Nodes[x].RoutingView()[z]
	fmt.Printf("X's lowest-cost path to Z: cost=%d via", route.Cost)
	for _, hop := range route.Path {
		fmt.Printf(" %s", g.Name(hop))
	}
	fmt.Println()
	for k, e := range res.Nodes[x].PricingView()[z] {
		fmt.Printf("X pays %s a VCG premium of %d per packet\n", g.Name(k), e.Price)
	}

	fmt.Println("\nrealized utilities (payments - true transit costs + delivery value):")
	for i := 0; i < g.N(); i++ {
		id := graph.NodeID(i)
		fmt.Printf("  %s: %d\n", g.Name(id), res.Utilities[id])
	}
}
