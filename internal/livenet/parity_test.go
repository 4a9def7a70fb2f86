package livenet

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// chainHandler sends `sends` sequential pings to peer: the first from
// Init, each further one only after an ack (any delivery) comes back.
// The per-link send order is therefore deterministic — exactly one
// message in flight per direction at a time — which is what makes the
// live network's per-link loss schedule consume the same stream
// positions as the simulator's.
type chainHandler struct {
	peer  sim.Addr
	sends int
	sent  int
	echo  bool // reply to every delivery instead of initiating
}

func (h *chainHandler) Init(ctx sim.Context) {
	if !h.echo && h.sent < h.sends {
		h.sent++
		ctx.Send(h.peer, "ping")
	}
}

func (h *chainHandler) Recv(ctx sim.Context, msg sim.Message) {
	if h.echo {
		ctx.Send(msg.From, "pong")
		return
	}
	if h.sent < h.sends {
		h.sent++
		ctx.Send(h.peer, "ping")
	}
}

// runSim plays the scenario on the deterministic event simulator.
func runSim(t *testing.T, build func() map[sim.Addr]sim.Handler, loss sim.LossModel) sim.Counters {
	t.Helper()
	net := sim.NewNetwork()
	if loss.Enabled() {
		net.SetLoss(loss)
	}
	for a, h := range build() {
		if err := net.Attach(a, h); err != nil {
			t.Fatal(err)
		}
	}
	c, err := net.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runLive plays the same scenario on the live goroutine network.
func runLive(t *testing.T, build func() map[sim.Addr]sim.Handler, loss sim.LossModel) sim.Counters {
	t.Helper()
	net := New(build())
	if loss.Enabled() {
		net.SetLoss(loss)
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	if err := net.WaitQuiescence(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	net.Shutdown()
	return net.Counters()
}

// comparable zeroes the fields whose values legitimately depend on the
// runtime (none today — kept as the single place to relax parity if a
// future axis needs it) and drops nil-vs-empty map differences.
func flatten(c sim.Counters) sim.Counters {
	if len(c.PerNodeIn) == 0 {
		c.PerNodeIn = nil
	}
	if len(c.PerNodeOut) == 0 {
		c.PerNodeOut = nil
	}
	return c
}

func assertCountersEqual(t *testing.T, want, got sim.Counters) {
	t.Helper()
	want, got = flatten(want), flatten(got)
	if want.Sent != got.Sent || want.Delivered != got.Delivered ||
		want.Dropped != got.Dropped || want.Retried != got.Retried ||
		want.Lost != got.Lost || want.Crashes != got.Crashes ||
		want.Restarts != got.Restarts || want.CrashDropped != got.CrashDropped ||
		want.Bytes != got.Bytes || want.Steps != got.Steps {
		t.Fatalf("counter mismatch:\n sim  %+v\n live %+v", want, got)
	}
	for a, v := range want.PerNodeIn {
		if got.PerNodeIn[a] != v {
			t.Fatalf("PerNodeIn[%d]: sim %d live %d", a, v, got.PerNodeIn[a])
		}
	}
	for a, v := range want.PerNodeOut {
		if got.PerNodeOut[a] != v {
			t.Fatalf("PerNodeOut[%d]: sim %d live %d", a, v, got.PerNodeOut[a])
		}
	}
}

// TestLossCountersParity pins the satellite contract: the same lossy
// scenario reports byte-identical Sent/Delivered/Dropped/Retried/Lost
// (and Bytes/Steps/per-node) counters whether it runs on the event
// simulator or on live goroutines. The ping-pong chain keeps exactly
// one message in flight per link, so both runtimes consume each link's
// seeded drop schedule in the same order.
func TestLossCountersParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		loss sim.LossModel
	}{
		{"iid-heavy", sim.LossModel{Rate: 0.4, Seed: 7, Attempts: 3, RetryDelay: 2}},
		{"bursty", sim.LossModel{Rate: 0.3, Burst: 4, Seed: 99, Attempts: 4, RetryDelay: 3}},
		{"near-certain-loss", sim.LossModel{Rate: 0.9, Seed: 3, Attempts: 2, RetryDelay: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() map[sim.Addr]sim.Handler {
				return map[sim.Addr]sim.Handler{
					0: &chainHandler{peer: 1, sends: 50},
					1: &chainHandler{echo: true},
					2: &chainHandler{peer: 3, sends: 30},
					3: &chainHandler{echo: true},
				}
			}
			simC := runSim(t, build, tc.loss)
			liveC := runLive(t, build, tc.loss)
			if simC.Dropped == 0 {
				t.Fatalf("loss model dropped nothing — parity test is vacuous")
			}
			assertCountersEqual(t, simC, liveC)
		})
	}
}
