// Package par runs indexed jobs on a small pool of workers that claim
// indices in increasing order. It is the one claiming loop behind
// fpss's ComputeCentral and Execute, core's deviation search and the
// experiments runner.
package par

import (
	"sync"
	"sync/atomic"
)

// Run calls job(&ws[k], i) for every i in [0, n), where k is the worker
// that claimed i, and returns the error of the lowest index that fails.
// Each worker claims the next index from a shared counter, and the
// calling goroutine is worker 0, so one worker starts no goroutine and
// stops at the first failure. A worker that claims an index above the
// lowest failure so far stops; every index below the final lowest
// failure still runs. When every job writes only index-i state, the
// results and the error do not depend on scheduling. A worker's state
// carries over from one Run to the next. The pool is min(len(ws), n)
// workers; ws must not be empty when n > 0.
func Run[W any](ws []W, n int, job func(w *W, i int) error) error {
	workers := min(len(ws), n)
	if workers <= 1 {
		for i := range n {
			if err := job(&ws[0], i); err != nil {
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
			if errs[i] = job(w, int(i)); errs[i] != nil {
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
			work(&ws[k])
		}()
	}
	work(&ws[0])
	wg.Wait()
	if s := stop.Load(); s < int64(n) {
		return errs[s]
	}
	return nil
}
