package fpss

import (
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
