// Election: the paper's §3 motivating story. A naive leader election
// fails once nodes are rational (everyone dodges the CPU-intensive
// job); the faithful Vickrey-procurement variant elects the most
// powerful node in equilibrium and pays it enough to want the job.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/election"
	"repro/internal/graph"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	topo, err := graph.RandomBiconnected(5, 3, 5, rng)
	if err != nil {
		log.Fatal(err)
	}
	powers := []int64{12, 40, 7, 25, 18} // node 1 is the most powerful
	base := election.Config{
		Topology:           topo,
		Powers:             powers,
		ServiceValue:       1,
		CostScale:          1200,
		NonProgressPenalty: 100_000,
	}

	// Naive spec, rational nodes: everyone underreports to dodge.
	naive := base
	naive.Variant = election.Naive
	dodgers := make(map[graph.NodeID]*election.Strategy)
	for i := range powers {
		dodgers[graph.NodeID(i)] = &election.Strategy{Declare: func(int64) int64 { return 1 }}
	}
	nr, err := election.Run(naive, dodgers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive + rational nodes: leader = node %d (power %d) — most powerful is node 1 (power 40)\n",
		nr.Leader, powers[nr.Leader])

	// Faithful spec: truthful reporting is an equilibrium.
	faithfulCfg := base
	faithfulCfg.Variant = election.Faithful
	fr, err := election.Run(faithfulCfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("faithful (Vickrey procurement): leader = node %d (power %d), paid %d (own cost %d)\n",
		fr.Leader, powers[fr.Leader], fr.Payment, faithfulCfg.ServingCost(int(fr.Leader)))
	fmt.Println("\nutilities under the faithful spec:")
	for i := range powers {
		fmt.Printf("  node %d: %d\n", i, fr.Utilities[graph.NodeID(i)])
	}

	// Message passing: node 0 inflates every report it relays. A node
	// keeps the first copy of each report it hears, so the nodes that
	// heard a tampered copy first hold a different report set, the
	// bank's checkpoint certifies nothing, and the tamperer pays the
	// non-progress penalty with everyone else.
	const tamperer = 0
	tr, err := election.Run(faithfulCfg, map[graph.NodeID]*election.Strategy{
		tamperer: {Relay: func(_ graph.NodeID, r election.Report) (election.Report, bool) {
			if r.Origin != tamperer {
				r.Value += 1000
			}
			return r, true
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfaithful, node %d tampers with relays: certified = %v, node %d's utility %d (honest: %d)\n",
		tamperer, tr.Completed, tamperer, tr.Utilities[tamperer], fr.Utilities[tamperer])
}
