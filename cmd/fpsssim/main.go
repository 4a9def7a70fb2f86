// Command fpsssim runs the interdomain-routing protocol — plain FPSS
// or the faithful extension — on a chosen topology and reports
// convergence statistics, tables and utilities.
//
// Usage:
//
//	fpsssim -topology figure1
//	fpsssim -topology ring -n 12 -chords 4 -seed 7 -faithful
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fpsssim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fpsssim", flag.ContinueOnError)
	topology := fs.String("topology", "figure1", "figure1 | ring | random")
	n := fs.Int("n", 8, "nodes (ring/random)")
	chords := fs.Int("chords", 3, "extra edges (ring/random)")
	maxCost := fs.Int64("maxcost", 10, "max random transit cost")
	seed := fs.Int64("seed", 1, "rng seed")
	useFaithful := fs.Bool("faithful", false, "run the faithful extension (checkers + bank)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *graph.Graph
	var err error
	rng := rand.New(rand.NewSource(*seed))
	switch *topology {
	case "figure1":
		g = graph.Figure1()
	case "ring":
		g, err = graph.RingWithChords(*n, *chords, graph.Cost(*maxCost), rng)
	case "random":
		g, err = graph.RandomBiconnected(*n, *chords, graph.Cost(*maxCost), rng)
	default:
		return fmt.Errorf("unknown topology %q", *topology)
	}
	if err != nil {
		return err
	}
	diameter, err := g.Diameter()
	if err != nil {
		return fmt.Errorf("diameter: %w", err)
	}
	fmt.Printf("topology: %s, n=%d, edges=%d, diameter=%d\n", *topology, g.N(), g.M(), diameter)

	if *useFaithful {
		return runFaithful(g)
	}
	return runPlain(g)
}

func runPlain(g *graph.Graph) error {
	res, err := fpss.Run(fpss.Config{Graph: g})
	if err != nil {
		return err
	}
	fmt.Printf("phase 1: %d msgs; phase 2 (cumulative): %d msgs, %d bytes\n",
		res.Phase1.Sent, res.Phase2.Sent, res.Phase2.Bytes)
	printTables(g, func(id graph.NodeID) (fpss.RoutingTable, fpss.PricingTable) {
		return res.Nodes[id].Routing(), res.Nodes[id].Pricing()
	})
	return nil
}

func runFaithful(g *graph.Graph) error {
	res, err := faithful.Run(faithful.Config{
		Graph:              g,
		Traffic:            fpss.AllToAllTraffic(g.N(), 1),
		DeliveryValue:      10_000,
		UndeliveredPenalty: 10_000,
	})
	if err != nil {
		return err
	}
	fmt.Printf("construction: %d msgs, %d bytes; green-lit: %v\n",
		res.Construction.Sent, res.Construction.Bytes, res.Completed)
	for _, d := range res.Detections {
		fmt.Println("detection:", d)
	}
	if !res.Completed {
		return nil
	}
	printTables(g, func(id graph.NodeID) (fpss.RoutingTable, fpss.PricingTable) {
		return res.Nodes[id].Routing(), res.Nodes[id].Pricing()
	})
	ids := make([]graph.NodeID, 0, len(res.Utilities))
	for id := range res.Utilities {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Println("utilities:")
	for _, id := range ids {
		fmt.Printf("  %s: %d\n", g.Name(id), res.Utilities[id])
	}
	return nil
}

func printTables(g *graph.Graph, tables func(graph.NodeID) (fpss.RoutingTable, fpss.PricingTable)) {
	for i := 0; i < g.N(); i++ {
		id := graph.NodeID(i)
		rt, pt := tables(id)
		fmt.Printf("node %s:\n", g.Name(id))
		for d, e := range rt.All() {
			fmt.Printf("  →%s cost=%d path=", g.Name(d), e.Cost)
			for j, hop := range e.Path {
				if j > 0 {
					fmt.Print("-")
				}
				fmt.Print(g.Name(hop))
			}
			if row := pt.Row(d); row != nil {
				fmt.Print(" prices{")
				ks := make([]graph.NodeID, 0, len(row))
				for k := range row {
					ks = append(ks, k)
				}
				sort.Slice(ks, func(a, b int) bool { return ks[a] < ks[b] })
				for j, k := range ks {
					if j > 0 {
						fmt.Print(" ")
					}
					fmt.Printf("%s:%d", g.Name(k), row[k].Price)
				}
				fmt.Print("}")
			}
			fmt.Println()
		}
	}
}
