package fpss

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// benchSizes is the size ladder reported in BENCH_graph.json, shared by
// the ComputeCentral and Execute rows so the two line up.
var benchSizes = []int{16, 32, 64, 128}

func benchCentralGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g, err := graph.RandomBiconnected(n, n, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkComputeCentral(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := benchCentralGraph(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ComputeCentral(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecute is execution-phase accounting over all-pairs traffic
// on each bench graph, with that graph's own central tables.
func BenchmarkExecute(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sol, err := ComputeCentral(benchCentralGraph(b, n))
			if err != nil {
				b.Fatal(err)
			}
			cfg := ExecConfig{
				TrueCosts:          sol.Costs,
				DeclaredCosts:      sol.Costs,
				Traffic:            AllToAllTraffic(n, 1),
				DeliveryValue:      100,
				UndeliveredPenalty: 100,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Execute(sol.Routing, sol.Pricing, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
