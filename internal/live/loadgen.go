package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// LoadgenConfig parameterizes one open-loop run.
type LoadgenConfig struct {
	// Rate is the offered load in requests/second (required).
	Rate float64
	// Requests is the total number of requests to issue (required).
	// Duration-style runs derive it as Rate × seconds.
	Requests int
	// Warmup discards the first Warmup of scheduled time from the
	// histogram (counters still include it).
	Warmup time.Duration
	// Workers sizes the completion pool (default 8). Open-loop: the
	// schedule never waits for a worker; a saturated pool shows up as
	// queueing latency, not as reduced offered load.
	Workers int
	// Seed keys the request schedule (class, src, dst draws). The same
	// seed against the same server replays the same request sequence.
	Seed uint64
}

// payFraction is the share of requests that are OpPay (the rest are
// OpRoute).
const payFraction = 0.5

func (c LoadgenConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 8
}

// ClassStats counts one request class.
type ClassStats struct {
	Issued int64 `json:"issued"`
	OK     int64 `json:"ok"`
	Errors int64 `json:"errors"`
}

// LoadgenResult is the outcome of one open-loop run.
type LoadgenResult struct {
	// Issued/Completed/Errors are totals across classes (warm-up
	// included).
	Issued, Completed, Errors int64
	// Route/Pay are the per-class counters.
	Route, Pay ClassStats
	// Hist holds post-warm-up latencies, measured from each request's
	// *scheduled* arrival (queueing included).
	Hist *Histogram
	// Elapsed is scheduler start to last completion; Achieved the
	// completed-request throughput over it.
	Elapsed  time.Duration
	Achieved float64
}

// String renders the one-line report liveserve prints.
func (r *LoadgenResult) String() string {
	return fmt.Sprintf("issued=%d ok=%d errs=%d rate=%.0f req/s lat{%s}",
		r.Issued, r.Completed-r.Errors, r.Errors, r.Achieved, r.Hist.Summary())
}

type genRequest struct {
	req     Request
	arrival time.Time
	warm    bool
}

// RunLoadgen drives the dispatcher with an open-loop, seed-
// deterministic schedule: request i is *scheduled* at start + i/Rate
// regardless of how fast earlier requests complete, and its latency is
// measured from that scheduled instant — the open-loop discipline that
// keeps coordinated omission out of the histogram. n is the node-ID
// space requests draw flows from.
func RunLoadgen(d Dispatcher, n int, cfg LoadgenConfig) (*LoadgenResult, error) {
	if cfg.Rate <= 0 {
		return nil, errors.New("live: loadgen requires Rate > 0")
	}
	if cfg.Requests <= 0 {
		return nil, errors.New("live: loadgen requires Requests > 0")
	}
	if n < 2 {
		return nil, errors.New("live: loadgen requires >= 2 nodes")
	}

	res := &LoadgenResult{Hist: NewHistogram()}
	var completed, errs atomic.Int64
	var routeOK, routeErr, payOK, payErr atomic.Int64

	// The queue is sized for the whole run: the scheduler must never
	// block on a slow worker, or the open loop silently closes.
	queue := make(chan genRequest, cfg.Requests)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gr := range queue {
				resp := d.Dispatch(gr.req)
				lat := time.Since(gr.arrival)
				completed.Add(1)
				ok := resp.OK
				if gr.req.Op == OpPay {
					if ok {
						payOK.Add(1)
					} else {
						payErr.Add(1)
					}
				} else {
					if ok {
						routeOK.Add(1)
					} else {
						routeErr.Add(1)
					}
				}
				if !ok {
					errs.Add(1)
				}
				if gr.warm {
					res.Hist.Record(lat)
				}
			}
		}()
	}

	// Single scheduler goroutine: all randomness is drawn sequentially
	// from one splitmix stream, so the request sequence is a pure
	// function of (Seed, Requests, n) — wall-clock jitter moves
	// arrival instants, never request identities.
	rng := cfg.Seed
	draw := func() uint64 {
		rng++
		return sim.Mix64(rng)
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		src := int(draw() % uint64(n))
		dst := int(draw() % uint64(n-1))
		if dst >= src {
			dst++
		}
		req := Request{Op: OpRoute, Src: src, Dst: dst}
		if float64(draw()%(1<<53))/(1<<53) < payFraction {
			req.Op = OpPay
			req.Packets = 1
		}
		if req.Op == OpPay {
			res.Pay.Issued++
		} else {
			res.Route.Issued++
		}
		res.Issued++
		queue <- genRequest{req: req, arrival: sched, warm: time.Duration(i)*interval >= cfg.Warmup}
	}
	close(queue)
	wg.Wait()

	res.Completed = completed.Load()
	res.Errors = errs.Load()
	res.Route.OK, res.Route.Errors = routeOK.Load(), routeErr.Load()
	res.Pay.OK, res.Pay.Errors = payOK.Load(), payErr.Load()
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.Achieved = float64(res.Completed) / res.Elapsed.Seconds()
	}
	return res, nil
}
