package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes a set of experiments over a worker pool. Every
// generator derives all randomness from its Params.Seed, so the tables
// a Runner produces are byte-identical to a sequential run regardless
// of worker count or completion order: results are returned in input
// order and seeds never depend on scheduling.
type Runner struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// Run generates every experiment's table with its registered Params.
// Tables come back in input order. If generators fail, Run reports the
// error of the earliest failing experiment (again independent of
// scheduling), wrapped with its ID.
func (r Runner) Run(exps []Experiment) ([]*Table, error) {
	return parallelMap(len(exps), r.Workers, func(i int) (*Table, error) {
		t, err := exps[i].Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		return t, nil
	})
}

// parallelMap runs fn(i) for every i in [0, n) over a worker pool
// (workers <= 0 means runtime.GOMAXPROCS(0)) and returns the results
// in index order. Workers claim indices in increasing order and stop
// past the earliest failure. Every job writes only its own slot and
// the earliest failing index's error is reported, so output is
// independent of scheduling. It is the one worker-pool implementation
// behind both Runner.Run and the deviation-sweep experiments
// (E3/E11/E13), which fan their (node, deviation) plays through it.
func parallelMap[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if out[i], errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
	} else {
		// Each worker claims the next index from a shared counter; the
		// calling goroutine is worker 0. stop is the lowest failing
		// index, and a worker that claims an index past it quits:
		// every index below it still runs, and the output past it is
		// discarded.
		var next, stop atomic.Int64
		stop.Store(int64(n))
		work := func() {
			for {
				i := next.Add(1) - 1
				if i >= stop.Load() {
					return
				}
				if out[i], errs[i] = fn(int(i)); errs[i] != nil {
					for s := stop.Load(); i < s && !stop.CompareAndSwap(s, i); s = stop.Load() {
					}
				}
			}
		}
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for range workers - 1 {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
