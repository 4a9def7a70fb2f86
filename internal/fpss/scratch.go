package fpss

import (
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/graph"
)

// ComputeScratch is the reusable storage behind DATA2/DATA3*
// derivation. Every entry of a derived table carries a witness path,
// and every pricing entry a tag set; allocating each separately was
// most of the protocol's garbage. The scratch attacks that two ways:
//
//   - witness paths and tag sets are carved out of a chunked NodeID
//     arena. Chunks start small and double, so a node of a small
//     network never pays for a large one. Handed-out slices are never
//     reused while the scratch lives, so tables that share entries with
//     earlier tables (see Derivation) stay valid. The scratch records
//     the chunks it draws, and release hands them back to chunkPools
//     for later arenas to draw: only Node.Release calls it, for a run
//     whose tables nobody reads any more;
//   - pricing rows are maps, drawn from rowPool when a released run
//     left some there. The scratch records every row it hands out, and
//     release clears them and puts them back, so rows live exactly as
//     long as the chunks behind their witness paths and tag sets;
//   - the per-call working sets (ComputeTables' dense DATA1, the
//     contribution list, candidate cells and their tags, and the
//     transits a row has tried) are
//     kept warm across calls, and a candidate is materialized into the
//     arena only once it is known to enter a table.
//
// A scratch is single-owner state, never shared across goroutines: one
// per protocol node (inside its Derivation), and one per worker of a
// central solve (see centralWorker), which uses only the arena, to
// carve its route paths, witness paths and tag sets. The zero value is
// ready to use.
type ComputeScratch struct {
	ids   []graph.NodeID
	chunk int
	// drawn[c] is the first chunk of size class c the arena drew, and
	// capped the maxChunk chunks it drew after that class's first: the
	// chunks release hands back. Every class below the cap is drawn at
	// most once, so a scratch that draws no more than one chunk per
	// class records them without allocating, and a run nobody releases
	// pays nothing for the record.
	drawn  [len(chunkPools)][]graph.NodeID
	capped [][]graph.NodeID
	// rows records the pricing rows materializeRow handed out: the rows
	// release clears and hands back to rowPool.
	rows     []map[graph.NodeID]PriceEntry
	direct   [1]graph.NodeID
	costs    []costSlot
	contribs []contrib
	cells    []priceCell
	tags     []graph.NodeID
	seen     []uint64
}

// The arena's first chunk holds minChunk IDs; each later chunk doubles
// up to maxChunk. Small enough that a node of a small network uses most
// of what it takes, big enough that chunk turnover is noise at scale.
// maxChunk is one ID short of 4096 so that a capped chunk, 32,760 bytes,
// stays a small-object allocation: the runtime sends any request above
// 32 KiB minus its 8-byte malloc header to the large-object allocator,
// which gives each chunk its own span, even for pointer-free memory.
const (
	minChunk = 256
	maxChunk = 4095
)

// chunkPools holds released arena chunks, one pool per chunk size of
// the doubling from minChunk to maxChunk (see chunkClass). An entry is
// a pointer to a chunk's first ID, so putting one allocates nothing.
var chunkPools [5]sync.Pool

// rowPool holds released pricing rows, cleared. A map value is a
// pointer, so putting one allocates nothing.
var rowPool sync.Pool

// chunkClass is the chunkPools index of a chunk of size c.
func chunkClass(c int) int { return bits.Len(uint(c-1)) - bits.Len(minChunk-1) }

// allocIDs reserves a zero-length slice with capacity n in the arena.
// The returned slice is exclusively the caller's: later reservations
// start past it (full-slice expression), and chunks are never rewound
// while the scratch lives, so entries that survive into advertised
// tables remain immutable until release.
func (s *ComputeScratch) allocIDs(n int) []graph.NodeID {
	if cap(s.ids)-len(s.ids) < n {
		c := max(s.chunk, minChunk)
		s.chunk = min(2*c, maxChunk)
		s.ids = s.newChunk(c, n)
	}
	off := len(s.ids)
	s.ids = s.ids[:off+n]
	return s.ids[off : off : off+n]
}

// newChunk draws an empty chunk of size c from its pool, or allocates
// it, and records it. A request above c gets a chunk of its own that
// no pool holds and release leaves to the GC.
func (s *ComputeScratch) newChunk(c, n int) []graph.NodeID {
	if n > c {
		return make([]graph.NodeID, 0, n)
	}
	class := chunkClass(c)
	var chunk []graph.NodeID
	if p, ok := chunkPools[class].Get().(*graph.NodeID); ok {
		chunk = unsafe.Slice(p, c)[:0]
	} else {
		chunk = make([]graph.NodeID, 0, c)
	}
	if s.drawn[class] == nil {
		s.drawn[class] = chunk
	} else {
		s.capped = append(s.capped, chunk)
	}
	return chunk
}

// release hands the recorded chunks back to chunkPools and empties the
// arena, and clears the recorded rows and hands them back to rowPool.
// Every path and tag set carved from the arena, and every row, becomes
// storage that later runs overwrite. A second release is a no-op.
func (s *ComputeScratch) release() {
	for class, c := range s.drawn {
		if c != nil {
			chunkPools[class].Put(&c[:1][0])
		}
	}
	for _, c := range s.capped {
		chunkPools[len(chunkPools)-1].Put(&c[:1][0])
	}
	for _, row := range s.rows {
		clear(row)
		rowPool.Put(row)
	}
	clear(s.capped)
	clear(s.rows)
	s.drawn, s.capped, s.rows, s.ids, s.chunk = [len(chunkPools)][]graph.NodeID{}, s.capped[:0], s.rows[:0], nil, 0
}

// newRow returns an empty pricing row for n entries, drawn from
// rowPool when it holds one, and records it for release. The record
// starts at minRows entries, so a node of a small network grows it
// once or twice rather than from one entry up: a run nobody releases
// pays for it too.
func (s *ComputeScratch) newRow(n int) map[graph.NodeID]PriceEntry {
	row, ok := rowPool.Get().(map[graph.NodeID]PriceEntry)
	if !ok {
		row = make(map[graph.NodeID]PriceEntry, n)
	}
	if s.rows == nil {
		s.rows = make([]map[graph.NodeID]PriceEntry, 0, minRows)
	}
	s.rows = append(s.rows, row)
	return row
}

// minRows is the row record's first capacity.
const minRows = 8

// prepend materializes self + base as a path carved from the arena.
func (s *ComputeScratch) prepend(self graph.NodeID, base graph.Path) graph.Path {
	p := s.allocIDs(len(base) + 1)
	p = append(p, self)
	return append(p, base...)
}

// copyIDs materializes ids as a slice carved from the arena.
func (s *ComputeScratch) copyIDs(ids []graph.NodeID) []graph.NodeID {
	return append(s.allocIDs(len(ids)), ids...)
}
