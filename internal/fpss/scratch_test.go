package fpss

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// TestArenaChunkIsSmallObject keeps a capped arena chunk within Go's
// small-object limit for a request, 32 KiB minus the 8-byte malloc
// header; a larger chunk is a large-object allocation with its own span.
func TestArenaChunkIsSmallObject(t *testing.T) {
	const limit = 32<<10 - 8
	if size := maxChunk * unsafe.Sizeof(graph.NodeID(0)); size > limit {
		t.Fatalf("a capped arena chunk is %d bytes, above the %d-byte small-object limit", size, limit)
	}
}

// TestReleaseRecyclesArena pins Release's contract. A run after another
// run's Release draws its arena from the released chunks, so it
// allocates fewer bytes than the run it follows; and the released
// chunks are that run's alone, so a run nobody released keeps its
// tables when the chunks are drawn and overwritten again. GC is off
// for the test, because a collection empties the pools.
func TestReleaseRecyclesArena(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, err := graph.RandomBiconnected(12, 6, 9, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(Config{Graph: g})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	for i := range chunkPools {
		for chunkPools[i].Get() != nil {
		}
	}
	kept, _ := run()
	want := runHashes(kept)
	first, firstBytes := run()
	first.Release()
	_, secondBytes := run()
	if secondBytes >= firstBytes {
		t.Errorf("a run after Release allocated %d bytes, the run before it %d", secondBytes, firstBytes)
	}
	if !slices.Equal(runHashes(kept), want) {
		t.Error("releasing one run and drawing its chunks changed the tables of a run nobody released")
	}
}

// runHashes lists every node's routing and pricing hash, by node ID.
func runHashes(res *Result) []Hash {
	var hs []Hash
	for id := range len(res.Nodes) {
		node := res.Nodes[graph.NodeID(id)]
		hs = append(hs, node.RoutingView().HashRouting(), node.PricingView().HashPricing())
	}
	return hs
}
