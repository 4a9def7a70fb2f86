package fpss

import "testing"

// TestPoolWorkersSizesPool pins the override the parallel tests rely
// on: a positive poolWorkers sizes every pool, whatever its sources.
func TestPoolWorkersSizesPool(t *testing.T) {
	defer func() { poolWorkers = 0 }()
	for _, workers := range []int{1, 2, 8} {
		poolWorkers = workers
		if p := newPool[int](40); len(p) != workers {
			t.Fatalf("workers=%d: pool of %d", workers, len(p))
		}
	}
}
