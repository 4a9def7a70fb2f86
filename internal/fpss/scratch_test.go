package fpss

import (
	"math/rand"
	"reflect"
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
// run's Release draws its arena from the released chunks, and its
// pricing rows from the released rows; and the released chunks and
// rows are that run's alone, so a run nobody released keeps its tables
// when they are drawn and overwritten again. Reuse is checked by
// identity, not by bytes allocated: a run's byte count also depends on
// whether it finds a pooled sim.Network, and under the race detector
// sync.Pool drops a quarter of its Puts on purpose. Each of the 12
// nodes draws at least one chunk and builds many rows, so the chance
// that none comes back is below 1e-7. GC is off for the test, because
// a collection empties the pools.
func TestReleaseRecyclesArena(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, err := graph.RandomBiconnected(12, 6, 9, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(Config{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i := range chunkPools {
		for chunkPools[i].Get() != nil {
		}
	}
	for rowPool.Get() != nil {
	}
	kept := run()
	want := runHashes(kept)
	first := run()
	released := make(map[*graph.NodeID]bool)
	for _, p := range arenaChunks(first) {
		released[p] = true
	}
	releasedRows := make(map[unsafe.Pointer]bool)
	for _, p := range pricingRows(first) {
		releasedRows[p] = true
	}
	first.Release()
	next := run()
	reused := 0
	for _, p := range arenaChunks(next) {
		if released[p] {
			reused++
		}
	}
	if reused == 0 {
		t.Errorf("a run after Release drew none of the %d chunks it released", len(released))
	}
	reused = 0
	for _, p := range pricingRows(next) {
		if releasedRows[p] {
			reused++
		}
	}
	if reused == 0 {
		t.Errorf("a run after Release drew none of the %d pricing rows it released", len(releasedRows))
	}
	if !slices.Equal(runHashes(kept), want) {
		t.Error("releasing one run and drawing its chunks and rows changed the tables of a run nobody released")
	}
}

// arenaChunks lists the first ID of every chunk the arenas of res's
// nodes drew: the pointers release hands to chunkPools.
func arenaChunks(res *Result) []*graph.NodeID {
	var ptrs []*graph.NodeID
	for _, node := range res.Nodes {
		s := &node.own.scratch
		for _, c := range s.drawn {
			if c != nil {
				ptrs = append(ptrs, &c[:1][0])
			}
		}
		for _, c := range s.capped {
			ptrs = append(ptrs, &c[:1][0])
		}
	}
	return ptrs
}

// pricingRows lists the identity of every pricing row the scratches of
// res's nodes handed out: the maps release hands to rowPool.
func pricingRows(res *Result) []unsafe.Pointer {
	var ptrs []unsafe.Pointer
	for _, node := range res.Nodes {
		for _, row := range node.own.scratch.rows {
			ptrs = append(ptrs, reflect.ValueOf(row).UnsafePointer())
		}
	}
	return ptrs
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
