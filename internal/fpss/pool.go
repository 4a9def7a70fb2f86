package fpss

import "runtime"

// poolWorkers overrides the pool size when positive; zero means one
// worker per sourcesPerWorker sources, at most runtime.GOMAXPROCS(0).
// Tests pin it to exercise the parallel path regardless of the host's
// core count.
var poolWorkers int

// sourcesPerWorker is the pool's grain. A worker has a fixed cost that
// a small call does not earn back: its goroutine, started afresh on
// each run, and its state: in ComputeCentral its n trees, scratch and
// first arena chunks, in Execute its copy of the per-node state. Timed
// on a 2-CPU machine through poolWorkers (median ns/op of five 1-s
// runs, one worker → two), ComputeCentral n=16 takes 236 → 245 µs, so
// the grain holds for it. At n=32, the first size the grain gives two
// workers, go test -bench -cpu 1,2 reads ComputeCentral 1.54 → 1.11 ms
// (median of five runs) and Execute 307 → 238 µs (of ten); at n=64
// ComputeCentral takes 10.5 → 7.2 ms and at n=128 Execute 4.59 → 3.87
// ms.
const sourcesPerWorker = 16

// newPool sizes the workers of one ComputeCentral or Execute call over
// the given number of sources, each with its own state W, for par.Run.
// A worker's state carries over from one run to the next.
func newPool[W any](sources int) []W {
	workers := poolWorkers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), max(1, sources/sourcesPerWorker))
	}
	return make([]W, workers)
}
