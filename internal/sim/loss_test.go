package sim

import (
	"reflect"
	"testing"
)

// sink records every delivered payload in order.
type sink struct{ got []any }

func (s *sink) Init(Context)              {}
func (s *sink) Recv(_ Context, m Message) { s.got = append(s.got, m.Payload) }

// ints returns the payloads as ints, in delivery order.
func (s *sink) ints() (out []int) {
	for _, p := range s.got {
		out = append(out, p.(int))
	}
	return out
}

// spray sends n numbered messages to one destination from Init.
type spray struct {
	to Addr
	n  int
}

func (s *spray) Init(ctx Context) {
	for i := 0; i < s.n; i++ {
		ctx.Send(s.to, i)
	}
}
func (*spray) Recv(Context, Message) {}

// runSpray runs a 1→1 spray of n messages under the model and returns
// the receiver's delivery order and the counters.
func runSpray(t *testing.T, m LossModel, n int) ([]int, Counters) {
	t.Helper()
	net := NewNetwork(WithLoss(m))
	rx := &sink{}
	if err := net.Attach(0, &spray{to: 1, n: n}); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(1, rx); err != nil {
		t.Fatal(err)
	}
	c, err := net.Run(int64(n) + 10)
	if err != nil {
		t.Fatal(err)
	}
	return rx.ints(), c
}

func TestLossZeroModelIsReliable(t *testing.T) {
	got, c := runSpray(t, LossModel{}, 50)
	if len(got) != 50 || c.Dropped != 0 || c.Retried != 0 || c.Lost != 0 {
		t.Fatalf("zero model dropped something: delivered=%d counters=%+v", len(got), c)
	}
}

func TestLossScheduleIsSeedDeterministic(t *testing.T) {
	m := LossModel{Rate: 0.3, Seed: 42, Attempts: 2, RetryDelay: 3}
	got1, c1 := runSpray(t, m, 200)
	got2, c2 := runSpray(t, m, 200)
	if len(got1) != len(got2) {
		t.Fatalf("same seed, different deliveries: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("same seed, different order at %d: %d vs %d", i, got1[i], got2[i])
		}
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("same seed, different counters: %+v vs %+v", c1, c2)
	}
	// A different seed must give a different schedule (with 200 draws
	// at rate 0.3 a collision is astronomically unlikely).
	m.Seed = 43
	got3, _ := runSpray(t, m, 200)
	same := len(got3) == len(got1)
	if same {
		for i := range got1 {
			if got1[i] != got3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

func TestLossPreservesPerLinkFIFO(t *testing.T) {
	// Heavy loss with a long retry delay maximizes reorder pressure;
	// the per-link clamp must still deliver in send order.
	got, c := runSpray(t, LossModel{Rate: 0.4, Seed: 7, Attempts: 12, RetryDelay: 50}, 300)
	if c.Retried == 0 {
		t.Fatal("test needs retries to exercise the clamp")
	}
	if c.Lost > 0 {
		t.Fatalf("12 attempts at rate 0.4 should never exhaust (p≈1.7e-5/msg): lost=%d", c.Lost)
	}
	if len(got) != 300 {
		t.Fatalf("delivered %d/300", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("link reordered: position %d got %d", i, v)
		}
	}
}

func TestLossEmpiricalRate(t *testing.T) {
	const n = 20000
	for _, m := range []LossModel{
		{Rate: 0.2, Seed: 11, Attempts: 1},
		{Rate: 0.2, Burst: 4, Seed: 11, Attempts: 1},
	} {
		_, c := runSpray(t, m, n)
		rate := float64(c.Dropped) / float64(n)
		if rate < 0.16 || rate > 0.24 {
			t.Errorf("model %+v: empirical drop rate %.3f, want ≈0.2", m, rate)
		}
		if c.Lost+c.Delivered != n {
			t.Errorf("model %+v: lost=%d delivered=%d, want sum %d", m, c.Lost, c.Delivered, n)
		}
	}
}

func TestLossBurstsAreBursty(t *testing.T) {
	// Count maximal runs of consecutive drops; with mean burst 5 the
	// average run must be visibly longer than under i.i.d. drops.
	meanRun := func(m LossModel) float64 {
		l := &linkLoss{state: Mix64(m.Seed)}
		runs, inRun, total := 0, false, 0
		for i := 0; i < 50000; i++ {
			if l.drop(m) {
				total++
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
		if runs == 0 {
			return 0
		}
		return float64(total) / float64(runs)
	}
	iid := meanRun(LossModel{Rate: 0.15, Seed: 5})
	bursty := meanRun(LossModel{Rate: 0.15, Burst: 5, Seed: 5})
	if bursty < 2*iid {
		t.Errorf("mean drop-run length: burst=%.2f iid=%.2f; want bursty >> iid", bursty, iid)
	}
}

// TestPooledNetworkClearsFaultState is the pooling regression test:
// acquire a network, install every fault hook (delay, loss), release
// it, re-acquire, and verify the clean run sees none of it.
func TestPooledNetworkClearsFaultState(t *testing.T) {
	faulty := AcquireNetwork(
		WithDelay(func(Addr, Addr) int64 { return 99 }),
		WithLoss(LossModel{Rate: 0.9, Seed: 1, Attempts: 1}),
	)
	rx := &sink{}
	if err := faulty.Attach(0, &spray{to: 1, n: 20}); err != nil {
		t.Fatal(err)
	}
	if err := faulty.Attach(1, rx); err != nil {
		t.Fatal(err)
	}
	fc, err := faulty.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Dropped == 0 || faulty.Now() < 99 {
		t.Fatalf("fault hooks had no effect: now=%d counters=%+v", faulty.Now(), fc)
	}
	faulty.Release()

	// The pool has exactly one network; re-acquire it bare and the
	// fault config must be gone.
	clean := AcquireNetwork()
	defer clean.Release()
	rx2 := &sink{}
	if err := clean.Attach(0, &spray{to: 1, n: 20}); err != nil {
		t.Fatal(err)
	}
	if err := clean.Attach(1, rx2); err != nil {
		t.Fatal(err)
	}
	c, err := clean.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rx2.got) != 20 || c.Dropped != 0 || c.Lost != 0 || c.Retried != 0 {
		t.Fatalf("re-acquired network leaked fault state: delivered=%d counters=%+v", len(rx2.got), c)
	}
	if clean.Now() > 21 {
		t.Fatalf("re-acquired network leaked the delay hook: now=%d", clean.Now())
	}
}

// TestSetLossZeroRemoves pins the SetLoss contract used by protocol
// runs threading an unset scenario axis through.
func TestSetLossZeroRemoves(t *testing.T) {
	n := NewNetwork(WithLoss(LossModel{Rate: 0.5, Seed: 1}))
	if n.loss == nil {
		t.Fatal("WithLoss did not install")
	}
	n.SetLoss(LossModel{})
	if n.loss != nil {
		t.Fatal("SetLoss(zero) did not remove the model")
	}
}
