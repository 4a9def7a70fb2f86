package live

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets covers int64 nanosecond values with 32 linear buckets
// per octave above 32ns (HDR-histogram style log-linear layout):
// values < 32 get exact buckets, larger values land in bucket
// (e<<5)+(v>>e) for e = bits.Len64(v)−6, bounding relative error by
// 1/32 ≈ 3%. Bucket 1887 (e=57, sub=63) is the top of the int64 range.
const histBuckets = 1888

// Histogram is a fixed-size, lock-free latency histogram: concurrent
// Record calls are single atomic increments, quantile reads walk the
// bucket array. The zero value is NOT ready; use NewHistogram.
type Histogram struct {
	counts []atomic.Int64
	total  atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, histBuckets)}
}

func bucketOf(v int64) int {
	if v < 32 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 6
	return (e << 5) + int(v>>uint(e))
}

// bucketValue returns the lower bound of bucket b — the value Quantile
// reports for samples landing there.
func bucketValue(b int) int64 {
	if b < 32 {
		return int64(b)
	}
	e := b/32 - 1
	sub := int64(b - e*32)
	return sub << uint(e)
}

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketOf(d.Nanoseconds())].Add(1)
	h.total.Add(1)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Quantile returns the latency at quantile q in [0, 1] (0 on an empty
// histogram), accurate to the bucket's ~3% width.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen int64
	for b := range h.counts {
		seen += h.counts[b].Load()
		if seen >= target {
			return time.Duration(bucketValue(b))
		}
	}
	return time.Duration(bucketValue(histBuckets - 1))
}

// Summary renders the standard percentile line, or only n=0 when
// there are no samples: a quantile of nothing is not a measurement.
func (h *Histogram) Summary() string {
	n := h.Count()
	if n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v p999=%v",
		n, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999))
}
