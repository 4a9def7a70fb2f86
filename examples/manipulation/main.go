// Manipulation: inject the paper's §4.3 manipulations against both
// protocol variants and watch what happens — plain FPSS silently
// accepts corrupted state (and payment fraud profits), while the
// extended specification's checkers and bank catch every attempt.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rational"
)

func main() {
	g := graph.Figure1()
	params := rational.DefaultParams(g)

	fmt.Println("deviation search on Figure 1 (every node × every catalogued deviation)")

	plain, err := core.CheckFaithfulnessCfg(&rational.PlainSystem{Graph: g, Params: params}, core.CheckConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplain FPSS: %d plays, %d profitable deviations found\n", plain.Checked, len(plain.Violations))
	for _, v := range plain.Violations {
		fmt.Printf("  %s\n", v)
	}
	fmt.Printf("verdict: IC=%v CC=%v AC=%v — not faithful\n", plain.IC(), plain.CC(), plain.AC())

	faithfulRep, err := core.CheckFaithfulnessCfg(&rational.FaithfulSystem{Graph: g, Params: params}, core.CheckConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nextended FPSS: %d plays, %d profitable deviations found\n",
		faithfulRep.Checked, len(faithfulRep.Violations))
	fmt.Printf("verdict: IC=%v CC=%v AC=%v — faithful (Theorem 1)\n",
		faithfulRep.IC(), faithfulRep.CC(), faithfulRep.AC())
}
