package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/par"
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

// parallelMap runs fn(i) for every i in [0, n) on par.Run (workers <= 0
// means runtime.GOMAXPROCS(0)) and returns the results in index order,
// or the earliest failing index's error, so output is independent of
// scheduling. It is the one worker pool behind both Runner.Run and the
// deviation-sweep experiments (E3/E11/E13), which fan their (node,
// deviation) plays through it.
func parallelMap[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	err := par.Run(make([]struct{}, workers), n, func(_ *struct{}, i int) (err error) {
		out[i], err = fn(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
