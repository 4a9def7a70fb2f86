package sim

import (
	"errors"
	"testing"
)

// echo replies to every ping with a pong until a hop budget runs out.
type pingMsg struct {
	hops int
}

type echoNode struct {
	peer    Addr
	starter bool
	got     []int
}

func (e *echoNode) Init(ctx Context) {
	if e.starter {
		ctx.Send(e.peer, pingMsg{hops: 4})
	}
}

func (e *echoNode) Recv(ctx Context, m Message) {
	p, ok := m.Payload.(pingMsg)
	if !ok {
		return
	}
	e.got = append(e.got, p.hops)
	if p.hops > 0 {
		ctx.Send(e.peer, pingMsg{hops: p.hops - 1})
	}
}

func TestPingPongRunsToQuiescence(t *testing.T) {
	n := NewNetwork()
	a := &echoNode{peer: 1, starter: true}
	b := &echoNode{peer: 0}
	if err := n.Attach(0, a); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(1, b); err != nil {
		t.Fatal(err)
	}
	c, err := n.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Quiescent() {
		t.Error("network should be quiescent")
	}
	if c.Sent != 5 || c.Delivered != 5 {
		t.Errorf("sent/delivered = %d/%d, want 5/5", c.Sent, c.Delivered)
	}
	// b sees hops 4,2,0; a sees 3,1.
	if len(b.got) != 3 || b.got[0] != 4 || b.got[2] != 0 {
		t.Errorf("b.got = %v", b.got)
	}
	if len(a.got) != 2 || a.got[0] != 3 {
		t.Errorf("a.got = %v", a.got)
	}
}

func TestDuplicateAttach(t *testing.T) {
	n := NewNetwork()
	if err := n.Attach(0, &echoNode{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(0, &echoNode{}); !errors.Is(err, ErrDuplicateAddr) {
		t.Errorf("duplicate attach = %v, want ErrDuplicateAddr", err)
	}
}

type flooder struct{ peer Addr }

func (f *flooder) Init(ctx Context) { ctx.Send(f.peer, pingMsg{}) }
func (f *flooder) Recv(ctx Context, _ Message) {
	ctx.Send(f.peer, pingMsg{}) // never terminates
}

func TestBudgetExhausted(t *testing.T) {
	n := NewNetwork()
	_ = n.Attach(0, &flooder{peer: 1})
	_ = n.Attach(1, &flooder{peer: 0})
	_, err := n.Run(10)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("Run = %v, want ErrBudgetExhausted", err)
	}
}

func TestUnknownDestinationDiscarded(t *testing.T) {
	n := NewNetwork()
	_ = n.Attach(0, &echoNode{peer: 99, starter: true})
	c, err := n.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sent != 1 || c.Delivered != 0 {
		t.Errorf("sent/delivered = %d/%d, want 1/0", c.Sent, c.Delivered)
	}
}

type sizedPayload struct{ n int }

func (s sizedPayload) Size() int { return s.n }

type oneShot struct {
	to      Addr
	payload any
}

func (o *oneShot) Init(ctx Context)      { ctx.Send(o.to, o.payload) }
func (o *oneShot) Recv(Context, Message) {}

func TestByteAccounting(t *testing.T) {
	n := NewNetwork()
	_ = n.Attach(0, &oneShot{to: 1, payload: sizedPayload{n: 37}})
	_ = n.Attach(1, &oneShot{to: 0, payload: "unsized"})
	c, err := n.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bytes != 38 { // 37 + default 1
		t.Errorf("bytes = %d, want 38", c.Bytes)
	}
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() []int {
		n := NewNetwork()
		rec := &recorder{}
		_ = n.Attach(9, rec)
		_ = n.Attach(0, &burst{to: 9, count: 5, base: 0})
		_ = n.Attach(1, &burst{to: 9, count: 5, base: 100})
		if _, err := n.Run(100); err != nil {
			t.Fatal(err)
		}
		return rec.seen
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic count")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("delivery order differs at %d: %v vs %v", i, first, again)
			}
		}
	}
}

type burst struct {
	to    Addr
	count int
	base  int
}

func (b *burst) Init(ctx Context) {
	for i := 0; i < b.count; i++ {
		ctx.Send(b.to, b.base+i)
	}
}
func (b *burst) Recv(Context, Message) {}

type recorder struct{ seen []int }

func (r *recorder) Init(Context) {}
func (r *recorder) Recv(_ Context, m Message) {
	if v, ok := m.Payload.(int); ok {
		r.seen = append(r.seen, v)
	}
}

func TestInjectAndResume(t *testing.T) {
	n := NewNetwork()
	rec := &recorder{}
	_ = n.Attach(5, rec)
	if _, err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	n.Inject(100, 5, 42)
	c, err := n.Resume(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.seen) != 1 || rec.seen[0] != 42 {
		t.Errorf("seen = %v, want [42]", rec.seen)
	}
	if c.Delivered != 1 {
		t.Errorf("delivered = %d, want 1", c.Delivered)
	}
}

func TestWithDelayOrdersAcrossLinks(t *testing.T) {
	n := NewNetwork(WithDelay(func(from, _ Addr) int64 {
		if from == 0 {
			return 10 // slow link
		}
		return 1
	}))
	rec := &recorder{}
	_ = n.Attach(9, rec)
	_ = n.Attach(0, &oneShot{to: 9, payload: 111})
	_ = n.Attach(1, &oneShot{to: 9, payload: 222})
	if _, err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(rec.seen) != 2 || rec.seen[0] != 222 || rec.seen[1] != 111 {
		t.Errorf("seen = %v, want [222 111] (fast link first)", rec.seen)
	}
}

func TestRunReentryRejected(t *testing.T) {
	n := NewNetwork()
	r := &reentrant{net: n}
	_ = n.Attach(0, r)
	if _, err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	if !r.sawErr {
		t.Error("nested Run should have errored")
	}
}

type reentrant struct {
	net    *Network
	sawErr bool
}

func (r *reentrant) Init(ctx Context) {
	if _, err := r.net.Run(1); err != nil {
		r.sawErr = true
	}
}
func (r *reentrant) Recv(Context, Message) {}

func TestResumeBudgetIsPerCall(t *testing.T) {
	// Each Run/Resume call gets its own step budget: an exhausted
	// drain can be continued by another Resume, and the cumulative
	// Steps counter keeps counting across calls.
	n := NewNetwork()
	_ = n.Attach(0, &flooder{peer: 1})
	_ = n.Attach(1, &flooder{peer: 0})
	c, err := n.Run(10)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Run = %v, want ErrBudgetExhausted", err)
	}
	if c.Steps != 10 {
		t.Errorf("steps after Run = %d, want 10", c.Steps)
	}
	c, err = n.Resume(7)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Resume = %v, want ErrBudgetExhausted (fresh budget, still flooding)", err)
	}
	if c.Steps != 17 {
		t.Errorf("steps after Resume = %d, want 17 (cumulative)", c.Steps)
	}
}

func TestInjectThenResumeRespectsBudget(t *testing.T) {
	// Injected messages count against the next Resume's budget exactly
	// like protocol messages, and a follow-up Resume finishes the job.
	n := NewNetwork()
	rec := &recorder{}
	_ = n.Attach(5, rec)
	if _, err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		n.Inject(100, 5, i)
	}
	if _, err := n.Resume(2); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Resume = %v, want ErrBudgetExhausted", err)
	}
	if len(rec.seen) != 2 {
		t.Fatalf("seen after capped Resume = %v, want 2 messages", rec.seen)
	}
	c, err := n.Resume(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.seen) != 4 || !n.Quiescent() {
		t.Errorf("seen = %v quiescent = %v, want all 4 delivered", rec.seen, n.Quiescent())
	}
	if c.Delivered != 4 {
		t.Errorf("delivered = %d, want 4", c.Delivered)
	}
}

func TestSparseAddresses(t *testing.T) {
	// Addresses outside the dense range (the bank lives at 1<<20) and
	// negative addresses take the map path: same delivery and
	// duplicate-detection semantics.
	const bank Addr = 1 << 20
	n := NewNetwork()
	rec := &recorder{}
	_ = n.Attach(bank, rec)
	_ = n.Attach(0, &burst{to: bank, count: 3})
	if err := n.Attach(bank, &recorder{}); !errors.Is(err, ErrDuplicateAddr) {
		t.Errorf("duplicate sparse attach = %v, want ErrDuplicateAddr", err)
	}
	c, err := n.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.seen) != 3 {
		t.Errorf("sparse handler saw %v, want 3 messages", rec.seen)
	}
	if c.Sent != 3 || c.Delivered != 3 {
		t.Errorf("counters sent=%d delivered=%d, want 3/3", c.Sent, c.Delivered)
	}
	if h, ok := n.Handler(bank); !ok || h != Handler(rec) {
		t.Error("Handler(bank) lookup failed")
	}
	if h, ok := n.Handler(-7); ok || h != nil {
		t.Error("Handler(-7) should be absent")
	}
}

func TestResetReuse(t *testing.T) {
	// A Reset network behaves exactly like a fresh one: handlers,
	// hooks, counters, queue and time are all cleared.
	n := NewNetwork(
		WithDelay(func(Addr, Addr) int64 { return 50 }),
		WithLoss(LossModel{Rate: 0.9, Seed: 1, Attempts: 1}),
	)
	_ = n.Attach(0, &burst{to: 1, count: 5})
	_ = n.Attach(1, &recorder{})
	if c, err := n.Run(100); err != nil {
		t.Fatal(err)
	} else if c.Dropped == 0 {
		t.Fatal("loss hook dropped nothing before Reset")
	}
	n.Reset()
	if _, ok := n.Handler(0); ok {
		t.Error("Reset should detach handlers")
	}
	rec := &recorder{}
	_ = n.Attach(0, &burst{to: 1, count: 2})
	_ = n.Attach(1, rec)
	c, err := n.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sent != 2 || c.Dropped != 0 {
		t.Errorf("post-Reset counters = %+v, want a fresh run without the loss hook", c)
	}
	if len(rec.seen) != 2 {
		t.Errorf("post-Reset delivery = %v, want 2 messages", rec.seen)
	}
	// Both Init-time sends deliver at t=1 (default delay, not the
	// cleared hook's 50): logical time restarted from zero.
	if n.Now() != 1 {
		t.Errorf("post-Reset time = %d, want 1", n.Now())
	}
}

func TestAcquireReleaseRoundTrip(t *testing.T) {
	for i := 0; i < 3; i++ {
		n := AcquireNetwork()
		rec := &recorder{}
		_ = n.Attach(0, &burst{to: 1, count: 3})
		_ = n.Attach(1, rec)
		c, err := n.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		if c.Sent != 3 || len(rec.seen) != 3 {
			t.Fatalf("round %d: sent=%d seen=%v, pooled network not clean", i, c.Sent, rec.seen)
		}
		n.Release()
	}
}

// Quiescent reports whether no messages are in flight.
func (n *Network) Quiescent() bool { return n.queue.n == 0 }

// Handler returns the handler attached at addr, if any.
func (n *Network) Handler(addr Addr) (Handler, bool) {
	h, _ := n.handler(addr)
	return h, h != nil
}

// Now returns the current simulated time.
func (n *Network) Now() int64 { return n.now }
