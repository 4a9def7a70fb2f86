package par

import (
	"fmt"
	"slices"
	"testing"
)

// TestPoolReportsLowestFailure runs a job that fails at the given
// indices on pools of several sizes: each must report the lowest
// failure, after running every index below it, and run no index twice.
// One worker runs the indices in order on the calling goroutine and
// stops at the first failure. A pool wider than the job count uses one
// worker per job, and one with nothing to run calls no job.
func TestPoolReportsLowestFailure(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, workers int
		fail       []int
	}{
		{"one worker", 40, 1, []int{13, 29}},
		{"two workers", 40, 2, []int{13, 29}},
		{"eight workers", 40, 8, []int{13, 29}},
		{"no jobs", 0, 4, nil},
		{"no jobs, no workers", 0, 0, nil},
		{"more workers than jobs", 3, 8, nil},
		{"no failure", 40, 8, nil},
		{"no failure, one worker", 40, 1, nil},
		{"failure at 0", 40, 8, []int{0, 29}},
		{"failure at 0, one worker", 40, 1, []int{0, 29}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := make([]int, tc.workers)
			ran := make([]int, tc.n)
			err := Run(ws, tc.n, func(jobs *int, i int) error {
				ran[i]++
				*jobs++
				if slices.Contains(tc.fail, i) {
					return fmt.Errorf("job %d failed", i)
				}
				return nil
			})
			low := tc.n // every index must run when none fails
			if len(tc.fail) > 0 {
				low = tc.fail[0]
				if want := fmt.Sprintf("job %d failed", low); err == nil || err.Error() != want {
					t.Fatalf("error %v, want %q", err, want)
				}
			} else if err != nil {
				t.Fatalf("error %v, want none", err)
			}
			ranCount := 0
			for i, r := range ran {
				switch {
				case r > 1:
					t.Errorf("index %d ran %d times", i, r)
				case r == 0 && i <= low && i < tc.n:
					t.Errorf("index %d at or below the failure did not run", i)
				}
				ranCount += r
			}
			jobs := 0
			for k, w := range ws {
				if k >= tc.n && w != 0 {
					t.Errorf("worker %d of a %d-job pool ran %d jobs", k, tc.n, w)
				}
				jobs += w
			}
			if jobs != ranCount {
				t.Errorf("workers counted %d jobs, %d indices ran", jobs, ranCount)
			}
			if want := min(low+1, tc.n); tc.workers == 1 && ranCount != want {
				t.Errorf("one worker: %d indices ran, want %d", ranCount, want)
			}
		})
	}
}
