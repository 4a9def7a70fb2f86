package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/churn"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/scenario"
)

// serveSpec is the served scenario: PrefAttach n=32, static when
// epochs is 1, a churn timeline otherwise.
func serveSpec(seed int64, epochs int) scenario.Spec {
	sp := scenario.Spec{
		Family:    scenario.PrefAttach,
		N:         32,
		Workload:  scenario.WorkloadAllPairs,
		CostModel: scenario.CostUniform,
		Seed:      keyedSeed(seed, 100),
	}
	if epochs > 1 {
		sp.Churn = scenario.Churn{Epochs: epochs, Joins: 1, Leaves: 1, RedrawFraction: 0.25}
	}
	return sp
}

// answer is the expected reply to one Route or Pay request.
type answer struct {
	path     []int
	cost     int64
	payments []live.Payment
	total    int64
}

// epochOracle holds every (src, dst) pair's expected Route and Pay
// replies for one epoch, from a scratch fpss.ComputeCentral.
type epochOracle struct {
	n     int
	route []answer
	pay   []answer
}

func newEpochOracle(comp *scenario.Compiled) (*epochOracle, error) {
	sol, err := fpss.ComputeCentral(comp.Graph)
	if err != nil {
		return nil, err
	}
	n := comp.Graph.N()
	o := &epochOracle{n: n, route: make([]answer, n*n), pay: make([]answer, n*n)}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			e := sol.Routing[graph.NodeID(src)][graph.NodeID(dst)]
			path := make([]int, len(e.Path))
			for i, h := range e.Path {
				path[i] = int(h)
			}
			o.route[src*n+dst] = answer{path: path, cost: int64(e.Cost)}
			list := fpss.PaymentList{}
			if comp.Params.Scheme == fpss.SchemeDeclaredCost {
				for _, k := range e.Path.TransitNodes() {
					list[k] += int64(sol.Costs[k])
				}
			} else {
				for k, pe := range sol.Pricing[graph.NodeID(src)][graph.NodeID(dst)] {
					list[k] += int64(pe.Price)
				}
			}
			keys := make([]graph.NodeID, 0, len(list))
			for k := range list {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			var a answer
			for _, k := range keys {
				a.payments = append(a.payments, live.Payment{To: int(k), Amount: list[k]})
				a.total += list[k]
			}
			o.pay[src*n+dst] = a
		}
	}
	return o, nil
}

// oracle maps an epoch to its expected replies.
type oracle []*epochOracle

// check reports whether resp is the right reply to req for the epoch
// the reply echoes.
func (o oracle) check(req live.Request, resp live.Response) bool {
	if !resp.OK || resp.Epoch < 0 || resp.Epoch >= len(o) {
		return false
	}
	eo := o[resp.Epoch]
	if req.Src >= eo.n || req.Dst >= eo.n {
		return false
	}
	if req.Op == live.OpPay {
		want := eo.pay[req.Src*eo.n+req.Dst]
		return resp.Total == want.total && slices.Equal(resp.Payments, want.payments)
	}
	want := eo.route[req.Src*eo.n+req.Dst]
	return resp.Cost == want.cost && slices.Equal(resp.Path, want.path)
}

// newOracle builds the expected replies of every epoch of sp, and
// returns the timeline it built them from.
func newOracle(sp scenario.Spec) (oracle, *churn.Timeline, error) {
	tl, err := churn.Build(sp)
	if err != nil {
		return nil, nil, err
	}
	o := make(oracle, len(tl.Epochs))
	for i, e := range tl.Epochs {
		if o[i], err = newEpochOracle(e.Compiled); err != nil {
			return nil, nil, fmt.Errorf("epoch %d oracle: %w", i, err)
		}
	}
	return o, tl, nil
}

// minN is the smallest population over the oracle's epochs: requests
// draw src and dst below it so every request is valid in every epoch.
func (o oracle) minN() int {
	n := o[0].n
	for _, eo := range o {
		n = min(n, eo.n)
	}
	return n
}

// reqStream draws seeded Route/Pay requests, half of each.
type reqStream struct {
	state uint64
	n     int
}

func newReqStream(seed int64, key uint64, n int) *reqStream {
	return &reqStream{state: uint64(keyedSeed(seed, key)), n: n}
}

func (s *reqStream) next() live.Request {
	s.state++
	x := scenario.Mix64(s.state)
	src := int(x % uint64(s.n))
	dst := int((x >> 20) % uint64(s.n-1))
	if dst >= src {
		dst++
	}
	if (x>>50)&1 == 1 {
		return live.Request{Op: live.OpPay, Src: src, Dst: dst, Packets: 1}
	}
	return live.Request{Op: live.OpRoute, Src: src, Dst: dst}
}

// newServer is one set-up: NewServer until epoch 0 has converged. The
// convergence runs every node's goroutines and keeps both CPUs busy,
// so setup_s on the serve workloads is its CPU time; the wall time,
// which follows the host's other tenants, is printed beside it.
func newServer(sp scenario.Spec) (*live.Server, phaseTime, error) {
	var srv *live.Server
	took, err := timePhase(func() (err error) {
		srv, err = live.NewServer(sp)
		return err
	})
	return srv, took, err
}

// setUpServer constructs the server reps times and keeps the last one.
func setUpServer(sp scenario.Spec, reps int) (*live.Server, phaseTimes, error) {
	var srv *live.Server
	var setups phaseTimes
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.Close()
		}
		var took phaseTime
		var err error
		if srv, took, err = newServer(sp); err != nil {
			return nil, nil, err
		}
		setups = append(setups, took)
	}
	return srv, setups, nil
}

// frontEnd is a server behind live.Serve on loopback, with one client
// connection per CPU.
type frontEnd struct {
	disp    *timedDispatcher
	on      atomic.Bool
	ln      net.Listener
	served  chan error
	clients []*live.Client
}

func openFrontEnd(srv *live.Server, conns int) (*frontEnd, error) {
	f := &frontEnd{served: make(chan error, 1)}
	f.disp = &timedDispatcher{srv: srv, on: &f.on}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.ln = ln
	go func() { f.served <- live.Serve(ln, f.disp) }()
	for i := 0; i < conns; i++ {
		c, err := live.Dial(ln.Addr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

// close hangs up every client, stops the listener and waits for Serve
// to return.
func (f *frontEnd) close() error {
	for _, c := range f.clients {
		c.Close()
	}
	f.ln.Close()
	return <-f.served
}

// toggleTracing flips dispatch timing on and off every period until
// stop closes, so traced and untraced samples interleave in time. The
// period does not divide the advance interval, so epoch rebuilds fall
// in both kinds of window.
func (f *frontEnd) toggleTracing(period time.Duration, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			f.on.Store(false)
			return
		case <-t.C:
			f.on.Store(!f.on.Load())
		}
	}
}

// rateWindow is the interval serve-read counts completions over; the
// median window rate shrugs off a burst in which the host ran other
// tenants.
const rateWindow = 100 * time.Millisecond

// warmup is the start of each serving run whose samples are dropped.
func warmup(seconds float64) time.Duration {
	return min(500*time.Millisecond, time.Duration(seconds*float64(time.Second)/10))
}

// sample is one request's timing, tagged with whether dispatch timing
// was on when it was sent.
type sample struct {
	d      time.Duration
	traced bool
}

type samples []sample

func (s samples) split() (all, traced, untraced durations) {
	for _, x := range s {
		all = append(all, x.d)
		if x.traced {
			traced = append(traced, x.d)
		} else {
			untraced = append(untraced, x.d)
		}
	}
	return all, traced, untraced
}

// runServeRead is the serve-read workload: closed-loop Route/Pay over
// one TCP connection per CPU against a static resident server.
func runServeRead(o options, out io.Writer) (*result, error) {
	sp := serveSpec(o.seed, 1)
	orc, _, err := newOracle(sp)
	if err != nil {
		return nil, err
	}
	srv, setups, err := setUpServer(sp, 9)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	conns := runtime.NumCPU()
	fe, err := openFrontEnd(srv, conns)
	if err != nil {
		return nil, err
	}
	type clientOut struct {
		rtt   samples
		done  []int // completions per rateWindow after warm-up
		wrong int
	}
	outs := make([]clientOut, conns)
	begin := time.Now()
	warmEnd := begin.Add(warmup(o.seconds))
	end := begin.Add(o.budget())
	var wg sync.WaitGroup
	for i, c := range fe.clients {
		wg.Add(1)
		go func(i int, c *live.Client) {
			defer wg.Done()
			co := &outs[i]
			stream := newReqStream(o.seed, uint64(i), orc.minN())
			for time.Now().Before(end) {
				req := stream.next()
				traced := fe.on.Load()
				sent := time.Now()
				resp := c.Dispatch(req)
				done := time.Now()
				if sent.After(warmEnd) {
					co.rtt = append(co.rtt, sample{done.Sub(sent), traced})
					k := int(done.Sub(warmEnd) / rateWindow)
					for len(co.done) <= k {
						co.done = append(co.done, 0)
					}
					co.done[k]++
				}
				if !orc.check(req, resp) {
					co.wrong++
				}
			}
		}(i, c)
	}
	// The cost window and dispatch timing open when warm-up ends, so
	// both cover the same requests as the round-trip samples.
	time.Sleep(time.Until(warmEnd))
	mem := openCost()
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	if o.trace {
		toggler.Add(1)
		go fe.toggleTracing(37*time.Millisecond, stop, &toggler)
	}
	wg.Wait()
	window := time.Since(warmEnd)
	md := mem.close()
	close(stop)
	toggler.Wait()
	if err := fe.close(); err != nil {
		return nil, err
	}

	r := newResult()
	var rtt samples
	var perWindow []int
	for _, co := range outs {
		rtt = append(rtt, co.rtt...)
		r.failed += co.wrong
		for k, n := range co.done {
			for len(perWindow) <= k {
				perWindow = append(perWindow, 0)
			}
			perWindow[k] += n
		}
	}
	// The last window is cut short by the end of the run.
	var rates []float64
	for _, n := range perWindow[:max(len(perWindow)-1, 0)] {
		rates = append(rates, float64(n)/rateWindow.Seconds())
	}
	all, tracedRTT, untracedRTT := rtt.split()
	r.attempted = len(all)
	setupWall, setupCPU := setups.medians()
	r.set("setup_s", setupCPU)
	r.set("run_ms", quantile(all.micros(), 0.5)/1000)
	r.perOp(md, len(all))
	r.note("setup_wall_s", setupWall, "s")
	r.note("window_rps", median(rates), "1/s")
	r.note("serve_rps", float64(len(all))/window.Seconds(), "1/s")
	r.note("rtt_p50_us", quantile(all.micros(), 0.5), "us")
	r.note("rtt_p99_us", quantile(all.micros(), 0.99), "us")
	r.note("alloc_b_per_req", r.values["alloc_b_per_op"], "B")
	r.note("rtt_samples", float64(len(all)), "count")
	fmt.Fprintf(out, "verdict serve-read %s requests=%d wrong=%d\n", sp.Describe(), len(all), r.failed)

	if o.trace {
		spent := fe.disp.samples()
		r.set("live.dispatch.n", float64(len(spent)))
		r.set("live.dispatch_p50_us", quantile(spent.micros(), 0.5))
		r.set("live.dispatch_p99_us", quantile(spent.micros(), 0.99))
		r.set("live.wire_share", 1-spent.sum().Seconds()/tracedRTT.sum().Seconds())
		r.set("live.rtt_p50_us", quantile(tracedRTT.micros(), 0.5))
		r.set("live.rtt_p99_us", quantile(tracedRTT.micros(), 0.99))
		r.set("trace.overhead", quantile(tracedRTT.micros(), 0.5)/quantile(untracedRTT.micros(), 0.5))
		r.setRuntime(md)
	}
	return r, nil
}

// reqTimes are one open-loop request's instants: when it was due,
// when the pacer released it, when a connection sent it and when the
// reply arrived.
type reqTimes struct {
	req                       live.Request
	due, release, send, reply time.Time
	traced, ok                bool
}

// pace releases requests open-loop at rate until every slot has gone
// out. It sleeps until the next request is due and then releases every
// request already due, so a late wake-up shows as generator lag
// instead of a spin that would starve the network poller. The queue
// holds every request, so the pacer never blocks on a slow connection.
func pace(slots []reqTimes, stream *reqStream, rate float64, queue chan<- int, on *atomic.Bool) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	next := 0
	for next < len(slots) {
		now := time.Now()
		traced := on.Load()
		for ; next < len(slots); next++ {
			due := start.Add(time.Duration(next) * interval)
			if due.After(now) {
				break
			}
			slots[next] = reqTimes{req: stream.next(), due: due, release: now, traced: traced}
			queue <- next
		}
		if next < len(slots) {
			time.Sleep(time.Until(start.Add(time.Duration(next) * interval)))
		}
	}
	close(queue)
}

// Serve-churn load: the latency within which a reply counts towards
// goodput, the offered rate, the epoch advance interval, and the
// segment length. Each segment serves a fresh timeline: how long a
// rebuild takes depends on the epoch graphs, and one timeline's graphs
// are too alike to stand for the workload. The offered rate is the
// generator's, so throughput counts only replies within goodputLimit
// of release: a rebuild that starves the reads for longer shows there.
const (
	goodputLimit    = 10 * time.Millisecond
	churnRate       = 5000.0
	churnAdvance    = 500 * time.Millisecond
	churnSegmentLen = 2500 * time.Millisecond
)

// churnBase keys serve-churn's timelines, segment k's from
// keyedSeed(churnBase, k); the workload seed draws only the requests.
// With seed-drawn timelines a rebuild's cost followed the draw: the
// median advance's CPU time spread 0.13 of its median, and allocation
// per request 0.09, over five seeds.
const churnBase = 1

// churnSegment is one serve-churn segment's record.
type churnSegment struct {
	setup     phaseTime
	elapsed   time.Duration
	slots     []reqTimes
	advances  phaseTimes
	msgs      []float64
	advFailed int
	cost      costDelta
	dispatch  durations
	mirror    *churn.Timeline
}

// runServeChurn is the serve-churn workload: open-loop Route/Pay at a
// fixed rate over one connection per CPU while a control goroutine
// advances the churn epoch at fixed intervals, one inject at a time,
// over a fresh timeline every segment.
func runServeChurn(o options, out io.Writer) (*result, error) {
	n := max(1, int(o.budget()/churnSegmentLen))
	var segs []*churnSegment
	for k := 0; k < n; k++ {
		seg, err := serveChurnSegment(o, keyedSeed(churnBase, uint64(k)), keyedSeed(o.seed, uint64(k)), o.budget()/time.Duration(n), out)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}

	r := newResult()
	var setups, advances phaseTimes
	var msgs []float64
	var lat, queueWait, lag samples
	var cost costDelta
	var elapsed time.Duration
	var spent durations
	requests := 0
	onTime := 0
	var served time.Duration
	lt := newLayerTimes()
	for _, seg := range segs {
		setups = append(setups, seg.setup)
		advances = append(advances, seg.advances...)
		msgs = append(msgs, seg.msgs...)
		r.attempted += len(seg.slots) + len(seg.advances)
		r.failed += seg.advFailed
		cost.add(seg.cost)
		elapsed += seg.elapsed
		spent = append(spent, seg.dispatch...)
		requests += len(seg.slots)
		warmEnd := seg.slots[0].due.Add(warmup(seg.elapsed.Seconds()))
		last := warmEnd
		for _, s := range seg.slots {
			if !s.ok {
				r.failed++
			}
			if s.due.Before(warmEnd) {
				continue
			}
			if s.reply.After(last) {
				last = s.reply
			}
			if s.ok && s.reply.Sub(s.release) <= goodputLimit {
				onTime++
			}
			lat = append(lat, sample{s.reply.Sub(s.release), s.traced})
			queueWait = append(queueWait, sample{s.send.Sub(s.release), s.traced})
			lag = append(lag, sample{s.release.Sub(s.due), s.traced})
		}
		served += last.Sub(warmEnd)
		if o.trace {
			if err := forceCentralChain(seg.mirror, lt); err != nil {
				return nil, err
			}
		}
	}
	all, tracedLat, untracedLat := lat.split()
	setupWall, setupCPU := setups.medians()
	advWall, _ := advances.medians()
	r.set("setup_s", setupCPU)
	// run_ms is the mean CPU time of an advance, not its wall time: a
	// rebuild keeps both CPUs busy, so its wall time follows how much of
	// them the host gives to other tenants (advance_ms spread 0.35–0.53
	// of its median over ten runs of the same code). The reads served
	// meanwhile are in it too; at the offered rate they are a small part.
	r.set("run_ms", ms(advances.cpu())/float64(len(advances)))
	r.note("setup_wall_s", setupWall, "s")
	r.note("goodput_per_s", float64(onTime)/served.Seconds(), "1/s")
	r.note("offered_per_s", float64(requests)/elapsed.Seconds(), "1/s")
	r.perOp(cost, requests)
	r.note("lat_p50_us", quantile(all.micros(), 0.5), "us")
	r.note("lat_p99_us", quantile(all.micros(), 0.99), "us")
	r.note("lat_samples", float64(len(all)), "count")
	r.note("advance_cpu_ms", r.values["run_ms"], "ms")
	r.note("advance_ms", advWall*1000, "ms")
	r.note("advances", float64(len(advances)), "count")
	r.note("segments", float64(len(segs)), "count")
	r.note("alloc_b_per_req", r.values["alloc_b_per_op"], "B")

	if o.trace {
		lt.report(r, len(segs))
		qAll, _, _ := queueWait.split()
		lagAll, _, _ := lag.split()
		r.set("live.dispatch.n", float64(len(spent)))
		r.set("live.dispatch_p50_us", quantile(spent.micros(), 0.5))
		r.set("live.dispatch_p99_us", quantile(spent.micros(), 0.99))
		r.set("live.queue_p99_us", quantile(qAll.micros(), 0.99))
		r.set("loadgen.lag_p50_us", quantile(lagAll.micros(), 0.5))
		r.set("loadgen.lag_p99_us", quantile(lagAll.micros(), 0.99))
		r.set("livenet.msgs_per_advance", median(msgs))
		r.set("trace.overhead", quantile(tracedLat.micros(), 0.5)/quantile(untracedLat.micros(), 0.5))
		r.setRuntime(cost)
	}
	return r, nil
}

// serveChurnSegment serves one fresh churn timeline for length: a new
// server, open-loop reads, and an epoch advance every churnAdvance.
func serveChurnSegment(o options, specSeed, reqSeed int64, length time.Duration, out io.Writer) (*churnSegment, error) {
	advances := max(1, int(length/churnAdvance))
	sp := serveSpec(specSeed, advances+1)
	orc, mirror, err := newOracle(sp)
	if err != nil {
		return nil, err
	}
	seg := &churnSegment{mirror: mirror}
	srv, took, err := newServer(sp)
	if err != nil {
		return nil, err
	}
	seg.setup = took
	defer srv.Close()
	fe, err := openFrontEnd(srv, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if o.trace {
		bg.Add(1)
		go fe.toggleTracing(37*time.Millisecond, stop, &bg)
	}

	seg.slots = make([]reqTimes, int(churnRate*length.Seconds()))
	// Sized to every request of the segment: see pace.
	queue := make(chan int, len(seg.slots))
	mem := openCost()
	begin := time.Now()
	var workers sync.WaitGroup
	for _, c := range fe.clients {
		workers.Add(1)
		go func(c *live.Client) {
			defer workers.Done()
			for i := range queue {
				s := &seg.slots[i]
				s.send = time.Now()
				resp := c.Dispatch(s.req)
				s.reply = time.Now()
				s.ok = orc.check(s.req, resp)
			}
		}(c)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for k := 0; k < advances; k++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(begin.Add(warmup(length.Seconds()) + time.Duration(k)*churnAdvance))):
			}
			var resp live.Response
			took, _ := timePhase(func() error {
				resp = srv.Dispatch(live.Request{Op: live.OpInject, Advance: true})
				return nil
			})
			seg.advances = append(seg.advances, took)
			if !resp.OK {
				seg.advFailed++
				continue
			}
			if st := srv.Dispatch(live.Request{Op: live.OpStats}); st.OK {
				seg.msgs = append(seg.msgs, float64(st.Stats.Net.Sent))
			}
		}
	}()
	pace(seg.slots, newReqStream(reqSeed, 7, orc.minN()), churnRate, queue, &fe.on)
	workers.Wait()
	seg.elapsed = time.Since(begin)
	seg.cost = mem.close()
	close(stop)
	bg.Wait()
	if err := fe.close(); err != nil {
		return nil, err
	}
	seg.dispatch = fe.disp.samples()
	wrong := 0
	for _, s := range seg.slots {
		if !s.ok {
			wrong++
		}
	}
	fmt.Fprintf(out, "verdict serve-churn %s requests=%d advances=%d wrong=%d\n", sp.Describe(), len(seg.slots), len(seg.advances), wrong+seg.advFailed)
	return seg, nil
}
