package fpss

import (
	"fmt"
	"testing"
)

// TestPoolReportsLowestFailure runs a job that fails at two indices on
// pools of one, two and eight workers: each must report the lower
// failure, after running every index below it. One worker runs the
// indices in order on the calling goroutine and stops at the first
// failure.
func TestPoolReportsLowestFailure(t *testing.T) {
	defer func() { poolWorkers = 0 }()
	const n, low, high = 40, 13, 29
	for _, workers := range []int{1, 2, 8} {
		poolWorkers = workers
		p := newPool[int](n)
		if len(p) != workers {
			t.Fatalf("workers=%d: pool of %d", workers, len(p))
		}
		ran := make([]bool, n)
		err := p.run(n, func(jobs *int, i int) error {
			ran[i] = true
			*jobs++
			if i == low || i == high {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if want := fmt.Sprintf("job %d failed", low); err == nil || err.Error() != want {
			t.Fatalf("workers=%d: error %v, want %q", workers, err, want)
		}
		for i := range low + 1 {
			if !ran[i] {
				t.Errorf("workers=%d: index %d below the failure did not run", workers, i)
			}
		}
		jobs := 0
		for _, w := range p {
			jobs += w
		}
		ranCount := 0
		for _, r := range ran {
			if r {
				ranCount++
			}
		}
		if jobs != ranCount {
			t.Errorf("workers=%d: workers counted %d jobs, %d indices ran", workers, jobs, ranCount)
		}
		if workers == 1 && ranCount != low+1 {
			t.Errorf("workers=1: %d indices ran, want %d", ranCount, low+1)
		}
	}
}
