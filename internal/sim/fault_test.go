package sim

import "testing"

// recSink counts deliveries and Recover calls; the drain loop should
// hand it Recover exactly once per restart, before further traffic.
type recSink struct {
	got      []any
	recovers int
	// afterRecover records how many deliveries had arrived when each
	// Recover fired, pinning "recovery runs before further delivery".
	afterRecover []int
}

func (s *recSink) Init(Context)              {}
func (s *recSink) Recv(_ Context, m Message) { s.got = append(s.got, m.Payload) }
func (s *recSink) Recover(Context) {
	s.recovers++
	s.afterRecover = append(s.afterRecover, len(s.got))
}

// sprayRun sends n numbered messages 0→1 under the fault schedule and
// returns the receiver and counters.
func sprayRun(t *testing.T, m FaultModel, n int) (*recSink, Counters) {
	t.Helper()
	net := NewNetwork(WithFaults(m))
	rx := &recSink{}
	if err := net.Attach(0, &spray{to: 1, n: n}); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(1, rx); err != nil {
		t.Fatal(err)
	}
	c, err := net.Run(int64(n) * 4)
	if err != nil {
		t.Fatal(err)
	}
	return rx, c
}

func TestFaultZeroModelIsNoop(t *testing.T) {
	rx, c := sprayRun(t, FaultModel{}, 20)
	if len(rx.got) != 20 || c.Crashes != 0 || c.Restarts != 0 || c.CrashDropped != 0 {
		t.Fatalf("zero model interfered: delivered=%d counters=%+v", len(rx.got), c)
	}
}

func TestFaultCrashWithoutRestartDropsRest(t *testing.T) {
	// Crash after the 3rd delivery, never restart: 3 delivered, the
	// remaining 17 dropped and counted.
	rx, c := sprayRun(t, FaultModel{Schedule: []Crash{
		{Addr: 1, AfterDeliveries: 3, RestartDelay: -1},
	}}, 20)
	if len(rx.got) != 3 {
		t.Fatalf("delivered %d, want 3", len(rx.got))
	}
	if c.Crashes != 1 || c.Restarts != 0 || c.CrashDropped != 17 {
		t.Fatalf("counters = %+v, want Crashes=1 Restarts=0 CrashDropped=17", c)
	}
	if rx.recovers != 0 {
		t.Fatalf("Recover called %d times on a dead endpoint", rx.recovers)
	}
}

func TestFaultRestartCallsRecoverBeforeDelivery(t *testing.T) {
	// All 20 messages are enqueued at Init with delay 1, so they all
	// arrive at t=1 in seq order. Crash after #3 with a 0-tick restart:
	// the restart marker lands after the still-queued traffic of the
	// same tick, so the rest of the burst is dropped, then the endpoint
	// comes back up.
	rx, c := sprayRun(t, FaultModel{Schedule: []Crash{
		{Addr: 1, AfterDeliveries: 3, RestartDelay: 0},
	}}, 20)
	if len(rx.got) != 3 {
		t.Fatalf("delivered %d, want 3 (burst arrives in one tick)", len(rx.got))
	}
	if rx.recovers != 1 {
		t.Fatalf("Recover called %d times, want 1", rx.recovers)
	}
	if len(rx.afterRecover) != 1 || rx.afterRecover[0] != 3 {
		t.Fatalf("Recover fired at delivery count %v, want [3]", rx.afterRecover)
	}
	if c.Crashes != 1 || c.Restarts != 1 || c.CrashDropped != 17 {
		t.Fatalf("counters = %+v, want Crashes=1 Restarts=1 CrashDropped=17", c)
	}
}

// trickle sends one message per received tick, so deliveries to the
// peer are spread over time and a restarted endpoint sees new traffic.
type trickle struct {
	self, to Addr
	left     int
}

func (s *trickle) Init(ctx Context) {
	if s.left > 0 {
		s.left--
		ctx.Send(s.to, s.left)
	}
	ctx.Send(s.self, tick{})
}
func (s *trickle) Recv(ctx Context, m Message) {
	if _, ok := m.Payload.(tick); !ok {
		return
	}
	if s.left > 0 {
		s.left--
		ctx.Send(s.to, s.left)
		ctx.Send(s.self, tick{})
	}
}

type tick struct{}

func TestFaultCrashDuringRecovery(t *testing.T) {
	// Two schedule entries on the same address: the second counts
	// deliveries from the restart onwards — crash-during-recovery.
	// With a trickle sender (one message per tick) the downtime windows
	// are narrow: crash after 2, restart after 3 ticks, crash again
	// after 2 post-restart deliveries, restart again, then drain.
	net := NewNetwork(WithFaults(FaultModel{Schedule: []Crash{
		{Addr: 1, AfterDeliveries: 2, RestartDelay: 3},
		{Addr: 1, AfterDeliveries: 2, RestartDelay: 3},
	}}))
	rx := &recSink{}
	if err := net.Attach(0, &trickle{self: 0, to: 1, left: 12}); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(1, rx); err != nil {
		t.Fatal(err)
	}
	c, err := net.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if c.Crashes != 2 || c.Restarts != 2 {
		t.Fatalf("counters = %+v, want Crashes=2 Restarts=2", c)
	}
	if rx.recovers != 2 {
		t.Fatalf("Recover called %d times, want 2", rx.recovers)
	}
	if c.CrashDropped == 0 {
		t.Fatalf("no deliveries dropped across two downtime windows: %+v", c)
	}
	// Deliveries + drops account for every sent message.
	if got := int64(len(rx.got)) + c.CrashDropped; got != 12 {
		t.Fatalf("delivered(%d) + crash-dropped(%d) = %d, want 12", len(rx.got), c.CrashDropped, got)
	}
}

func TestSelfSendsExemptFromLoss(t *testing.T) {
	// A handler's self-sends are private timers: even a certain-loss
	// model must not eat them, or every timer-driven protocol would
	// deadlock under loss. The trickle sender paces itself with
	// self-send ticks; under Rate=1 every 0→1 message is lost but the
	// tick chain keeps running to completion.
	net := NewNetwork(WithLoss(LossModel{Rate: 1, Seed: 7, Attempts: 1}))
	rx := &recSink{}
	if err := net.Attach(0, &trickle{self: 0, to: 1, left: 5}); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(1, rx); err != nil {
		t.Fatal(err)
	}
	c, err := net.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rx.got) != 0 || c.Lost != 5 {
		t.Fatalf("want all 5 cross-link messages lost, got delivered=%d counters=%+v", len(rx.got), c)
	}
	// 5 payloads + 5 ticks sent; ticks never dropped.
	if c.Sent != 10 {
		t.Fatalf("Sent = %d, want 10 (5 payloads + 5 self-ticks)", c.Sent)
	}
}

// TestFaultPooledReuse is the pooling-hygiene regression for the crash
// axis (mirroring the loss axis): a crashy scenario followed by a clean
// one on the same pooled Network must not replay the crash schedule or
// leak down-state or counters.
func TestFaultPooledReuse(t *testing.T) {
	net := AcquireNetwork(WithFaults(FaultModel{Schedule: []Crash{
		{Addr: 1, AfterDeliveries: 2, RestartDelay: -1},
	}}))
	rx := &recSink{}
	if err := net.Attach(0, &spray{to: 1, n: 10}); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(1, rx); err != nil {
		t.Fatal(err)
	}
	c, err := net.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Crashes != 1 || c.CrashDropped != 8 {
		t.Fatalf("crashy run counters = %+v, want Crashes=1 CrashDropped=8", c)
	}
	net.Release()

	// Clean scenario on the pooled network: same addresses, no model.
	net2 := AcquireNetwork()
	rx2 := &recSink{}
	if err := net2.Attach(0, &spray{to: 1, n: 10}); err != nil {
		t.Fatal(err)
	}
	if err := net2.Attach(1, rx2); err != nil {
		t.Fatal(err)
	}
	c2, err := net2.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rx2.got) != 10 || c2.Crashes != 0 || c2.Restarts != 0 || c2.CrashDropped != 0 {
		t.Fatalf("pooled reuse leaked crash state: delivered=%d counters=%+v", len(rx2.got), c2)
	}
	if net2.Down(1) {
		t.Fatal("pooled reuse leaked down-state for addr 1")
	}
	net2.Release()
}
