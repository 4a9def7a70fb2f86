package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n, extra int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g, err := RandomBiconnected(n, extra, 50, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSSSP is the allocation-free core on its own: reused Tree
// and Scratch, no path materialization. The steady state is 0
// allocs/op.
func BenchmarkSSSP32(b *testing.B) {
	g := benchGraph(b, 32, 32)
	t, s := &Tree{}, &Scratch{}
	g.ensureCSR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.SSSP(t, s, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArticulationPoints64(b *testing.B) {
	g := benchGraph(b, 64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ArticulationPoints()
	}
}

func BenchmarkRandomBiconnected32(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RandomBiconnected(32, 16, 20, rng); err != nil {
			b.Fatal(err)
		}
	}
}
