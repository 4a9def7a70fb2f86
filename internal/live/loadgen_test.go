package live

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestHistogramBuckets(t *testing.T) {
	// Exact below 32, monotone log-linear above, ~3% relative error.
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1 << 40} {
		b := bucketOf(v)
		lo := bucketValue(b)
		if lo > v {
			t.Fatalf("bucketValue(%d)=%d exceeds sample %d", b, lo, v)
		}
		if v >= 32 && float64(v-lo) > float64(v)/32+1 {
			t.Fatalf("sample %d lands in bucket starting %d — error beyond the log-linear bound", v, lo)
		}
		if v < 32 && lo != v {
			t.Fatalf("sample %d below linear range not exact: bucket start %d", v, lo)
		}
	}
	prev := int64(-1)
	for b := 0; b < histBuckets; b++ {
		if v := bucketValue(b); v < prev {
			t.Fatalf("bucket %d value %d < previous %d — non-monotone", b, v, prev)
		} else {
			prev = v
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.90, 900 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		// Log-linear buckets are ~3% wide; allow 5%.
		if diff := got - tc.want; diff < -tc.want/20 || diff > tc.want/20 {
			t.Fatalf("p%v = %v, want ~%v", tc.q*100, got, tc.want)
		}
	}
	if NewHistogram().Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not zero")
	}
}

// TestLoadgenAgainstServer drives a resident server open-loop and
// checks the accounting: every request completes, none error, the
// histogram holds exactly the post-warm-up samples, and the per-class
// split covers the total.
func TestLoadgenAgainstServer(t *testing.T) {
	srv, err := NewServer(scenario.Spec{Family: scenario.Random, N: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	cfg := LoadgenConfig{Rate: 5000, Requests: 1000, Warmup: 50 * time.Millisecond, Workers: 4, Seed: 17}
	res, err := RunLoadgen(srv, srv.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 1000 || res.Completed != 1000 {
		t.Fatalf("issued %d completed %d, want 1000/1000", res.Issued, res.Completed)
	}
	if res.Errors != 0 {
		t.Fatalf("%d requests failed", res.Errors)
	}
	if res.Route.Issued+res.Pay.Issued != res.Issued {
		t.Fatalf("class split %d+%d != %d", res.Route.Issued, res.Pay.Issued, res.Issued)
	}
	if res.Route.Issued == 0 || res.Pay.Issued == 0 {
		t.Fatalf("degenerate class split: %+v / %+v", res.Route, res.Pay)
	}
	// Warm-up covers the first 50ms of a 200ms schedule: the histogram
	// must hold fewer samples than the total but most of it.
	warmupReqs := int64(cfg.Rate * cfg.Warmup.Seconds())
	if got := res.Hist.Count(); got != res.Completed-warmupReqs {
		t.Fatalf("histogram holds %d samples, want %d (1000 − %d warm-up)", got, res.Completed-warmupReqs, warmupReqs)
	}
	if res.Achieved <= 0 {
		t.Fatalf("achieved rate %f", res.Achieved)
	}
}

// TestLoadgenDeterministicSchedule pins the open-loop schedule: the
// same seed issues the identical request sequence regardless of
// timing, so a live run is replayable.
func TestLoadgenDeterministicSchedule(t *testing.T) {
	type recorded struct {
		op       Op
		src, dst int
	}
	var runs [2][]recorded
	for r := 0; r < 2; r++ {
		var reqs []recorded
		var mu sync.Mutex
		rec := dispatchFunc(func(req Request) Response {
			mu.Lock()
			reqs = append(reqs, recorded{op: req.Op, src: req.Src, dst: req.Dst})
			mu.Unlock()
			return Response{OK: true}
		})
		// Workers=1 keeps the recording order identical to the
		// schedule order.
		if _, err := RunLoadgen(rec, 8, LoadgenConfig{Rate: 100000, Requests: 200, Workers: 1, Seed: 99}); err != nil {
			t.Fatal(err)
		}
		runs[r] = reqs
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("lengths differ: %d vs %d", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("request %d differs across identically seeded runs: %+v vs %+v", i, runs[0][i], runs[1][i])
		}
	}
}

type dispatchFunc func(Request) Response

func (f dispatchFunc) Dispatch(r Request) Response { return f(r) }

// TestTCPRoundTrip serves a scenario over the localhost front end and
// drives it through the Dispatcher-implementing client — including a
// short open-loop run over the wire.
func TestTCPRoundTrip(t *testing.T) {
	srv, err := NewServer(scenario.Spec{Family: scenario.Figure1})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, srv)

	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	direct := srv.Dispatch(Request{Op: OpRoute, Src: 0, Dst: 5})
	wired := cli.Dispatch(Request{Op: OpRoute, Src: 0, Dst: 5})
	if !wired.OK || wired.Cost != direct.Cost || len(wired.Path) != len(direct.Path) {
		t.Fatalf("wire response %+v != direct %+v", wired, direct)
	}
	if resp := cli.Dispatch(Request{Op: OpStats}); !resp.OK || resp.Stats == nil || resp.Stats.N != 6 {
		t.Fatalf("stats over wire: %+v", resp)
	}

	res, err := RunLoadgen(cli, srv.N(), LoadgenConfig{Rate: 2000, Requests: 200, Workers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Completed != 200 {
		t.Fatalf("wire loadgen: %+v", res)
	}
}
