package live

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"
)

// FuzzHistogram records up to 300 samples decoded from the input, of
// any magnitude and sign, and compares every quantile on a grid with
// the exact sorted samples. Quantile(q) must be the lower bound of the
// bucket that holds the sample of rank int64(q·n+0.5), clamped to
// [1, n]; it must lie within 1/32 below that sample (a negative sample
// reads 0); and it must not decrease as q grows. Count must be n, and
// an empty histogram's Summary names no quantile.
func FuzzHistogram(f *testing.F) {
	sample := func(shift byte, v int64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{shift}, uint64(v))
	}
	f.Add([]byte{})
	f.Add(sample(0, 1))
	f.Add(slices.Concat(sample(60, 1000), sample(0, -5), sample(40, math.MaxInt64), sample(0, math.MaxInt64)))
	f.Add(slices.Concat(sample(0, math.MinInt64), sample(0, math.MaxInt64-1), sample(58, 31), sample(58, 32), sample(0, 33)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each sample is a shift byte and eight value bytes: shifting
		// right by the byte (mod 64) spreads magnitudes over every
		// octave and keeps the sign.
		var samples []int64
		for len(data) >= 9 && len(samples) < 300 {
			v := int64(binary.LittleEndian.Uint64(data[1:9])) >> (data[0] % 64)
			samples = append(samples, v)
			data = data[9:]
		}
		h := NewHistogram()
		for _, v := range samples {
			h.Record(time.Duration(v))
		}
		n := int64(len(samples))
		if h.Count() != n {
			t.Fatalf("Count() = %d after %d samples", h.Count(), n)
		}
		if n == 0 {
			if got := h.Quantile(0.5); got != 0 {
				t.Fatalf("empty histogram: Quantile(0.5) = %v", got)
			}
			if got := h.Summary(); got != "n=0" {
				t.Fatalf("empty histogram: Summary() = %q, want n=0 and no quantile", got)
			}
			return
		}
		slices.Sort(samples)
		prev := time.Duration(math.MinInt64)
		for _, q := range []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			rank := min(max(int64(q*float64(n)+0.5), 1), n)
			s := samples[rank-1]
			got := h.Quantile(q)
			if want := time.Duration(bucketValue(bucketOf(s))); got != want {
				t.Fatalf("Quantile(%v) = %d, want %d: the bucket of rank %d of %d, sample %d", q, got, want, rank, n, s)
			}
			if s < 0 && got != 0 || s >= 0 && (int64(got) > s || s-int64(got) > s/32) {
				t.Fatalf("Quantile(%v) = %d is not within 1/32 below sample %d", q, got, s)
			}
			if got < prev {
				t.Fatalf("Quantile(%v) = %d is below the previous grid point's %d", q, got, prev)
			}
			prev = got
		}
	})
}
