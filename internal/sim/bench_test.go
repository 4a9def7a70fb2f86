package sim

import "testing"

// chainNode forwards a token down a line of nodes.
type chainNode struct {
	next Addr
	last bool
}

func (c *chainNode) Init(ctx Context) {
	if ctx.Self() == 0 {
		ctx.Send(c.next, "token")
	}
}

func (c *chainNode) Recv(ctx Context, m Message) {
	if !c.last {
		ctx.Send(c.next, m.Payload)
	}
}

func BenchmarkTokenChain64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := NewNetwork()
		const size = 64
		for j := 0; j < size; j++ {
			_ = n.Attach(Addr(j), &chainNode{next: Addr(j + 1), last: j == size-1})
		}
		if _, err := n.Run(1 << 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenChain64Pooled is the deviation-search shape: the same
// workload as BenchmarkTokenChain64 but rebuilding each run's network
// from the package pool, the way fpss.Run and faithful.Run do.
func BenchmarkTokenChain64Pooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := AcquireNetwork()
		const size = 64
		for j := 0; j < size; j++ {
			_ = n.Attach(Addr(j), &chainNode{next: Addr(j + 1), last: j == size-1})
		}
		if _, err := n.Run(1 << 12); err != nil {
			b.Fatal(err)
		}
		n.Release()
	}
}

type broadcaster struct {
	peers int
}

func (br *broadcaster) Init(ctx Context) {
	for j := 0; j < br.peers; j++ {
		if Addr(j) != ctx.Self() {
			ctx.Send(Addr(j), int(ctx.Self()))
		}
	}
}

func (br *broadcaster) Recv(Context, Message) {}

func BenchmarkAllToAllBroadcast32(b *testing.B) {
	benchmarkAllToAll(b)
}

// BenchmarkAllToAllBroadcast32Lossy is the same broadcast over bursty
// 10% loss, the shape of the pinned loss specs: retries spread
// delivery times over the retry envelope, so sends no longer reach the
// queue in delivery order.
func BenchmarkAllToAllBroadcast32Lossy(b *testing.B) {
	benchmarkAllToAll(b, WithLoss(LossModel{Rate: 0.1, Burst: 3, Seed: 1}))
}

func benchmarkAllToAll(b *testing.B, opts ...Option) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := NewNetwork(opts...)
		const size = 32
		for j := 0; j < size; j++ {
			_ = n.Attach(Addr(j), &broadcaster{peers: size})
		}
		if _, err := n.Run(1 << 12); err != nil {
			b.Fatal(err)
		}
	}
}

// ringNode forwards a token around a ring forever; the benchmark
// bounds each drain with the step budget.
type ringNode struct{ next Addr }

func (r *ringNode) Init(Context) {}
func (r *ringNode) Recv(ctx Context, m Message) {
	ctx.Send(r.next, m.Payload)
}

// BenchmarkEventLoopSteadyState measures the pure delivery loop: one
// network built outside the timed region, each iteration draining
// exactly 4096 deliveries. This is the allocs/op figure for the sim
// event loop itself (calendar push/pop at queue depth 1, context
// reuse, dense counters), with network construction and payload
// boxing excluded.
func BenchmarkEventLoopSteadyState(b *testing.B) {
	n := NewNetwork()
	const size = 64
	for j := 0; j < size; j++ {
		_ = n.Attach(Addr(j), &ringNode{next: Addr((j + 1) % size)})
	}
	n.Inject(99, 0, "token")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Resume(1 << 12); err == nil {
			b.Fatal("ring should never quiesce")
		}
	}
	b.ReportMetric(1<<12, "deliveries/op")
}
