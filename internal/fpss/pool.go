package fpss

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolWorkers overrides the pool size when positive; zero means one
// worker per sourcesPerWorker sources, at most runtime.GOMAXPROCS(0).
// Tests pin it to exercise the parallel path regardless of the host's
// core count.
var poolWorkers int

// sourcesPerWorker is the pool's grain. A worker has a fixed cost that
// a small call does not earn back: its goroutine, whose first claim
// came 76–162 µs after the caller's in each run on a 2-CPU machine,
// and its state: in ComputeCentral its n trees, scratch and first
// arena chunks, in Execute its copy of the per-node state. Timed there
// through poolWorkers (median ns/op of five 1-s runs, one worker →
// two), ComputeCentral n=16 takes 236 → 245 µs and n=32 1.33 → 1.13
// ms, so the grain holds for it. Execute shares the rule although n=32
// takes 246 → 270 µs; at n=128 two workers take 3.8–5.2 ms against
// 6.9–9.9 on one.
const sourcesPerWorker = 16

// pool is the workers of one ComputeCentral or Execute call, each with
// its own state W. A worker's state carries over from one run of the
// pool to the next.
type pool[W any] []W

// newPool sizes a pool for a call over the given number of sources.
func newPool[W any](sources int) pool[W] {
	workers := poolWorkers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), max(1, sources/sourcesPerWorker))
	}
	return make(pool[W], workers)
}

// run calls fn(w, i) for every i in [0, n) and returns the error of the
// lowest index that fails. Each worker claims the next index from a
// shared counter, and the calling goroutine is worker 0, so a
// one-worker pool starts no goroutine. A worker that claims an index
// above the lowest failure so far stops; every index below the final
// lowest failure still runs. Every job writes only index-i state, so
// results and the error do not depend on scheduling.
func (p pool[W]) run(n int, fn func(w *W, i int) error) error {
	workers := min(len(p), n)
	if workers <= 1 {
		for i := range n {
			if err := fn(&p[0], i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	// next is the next index to claim; stop is the lowest failing
	// index, n while none has failed.
	var next, stop atomic.Int64
	stop.Store(int64(n))
	work := func(w *W) {
		for {
			i := next.Add(1) - 1
			if i >= stop.Load() {
				return
			}
			if errs[i] = fn(w, int(i)); errs[i] != nil {
				for s := stop.Load(); i < s && !stop.CompareAndSwap(s, i); s = stop.Load() {
				}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for k := 1; k < workers; k++ {
		go func() {
			defer wg.Done()
			work(&p[k])
		}()
	}
	work(&p[0])
	wg.Wait()
	if s := stop.Load(); s < int64(n) {
		return errs[s]
	}
	return nil
}
