package sim

import (
	"fmt"
	"strings"
	"testing"
)

// refEvent is one event in refQueue.
type refEvent struct {
	at, seq int64
	id      int
}

// refQueue is the calendar's oracle: a linear scan that pops the
// minimum (at, seq), with seq the push order.
type refQueue struct {
	evs []refEvent
	seq int64
}

func (r *refQueue) push(at int64, id int) {
	r.seq++
	r.evs = append(r.evs, refEvent{at: at, seq: r.seq, id: id})
}

func (r *refQueue) pop() refEvent {
	best := 0
	for i, e := range r.evs {
		if e.at < r.evs[best].at || e.at == r.evs[best].at && e.seq < r.evs[best].seq {
			best = i
		}
	}
	e := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	return e
}

// queueDelay decodes one push's delay from the fuzz input: ties and
// unit steps, delays up to a few laps of the calendar, and delays far
// beyond its width.
func queueDelay(op, b byte) int64 {
	switch op >> 1 & 3 {
	case 0:
		return int64(b & 3)
	case 1:
		return int64(b)
	case 2:
		return int64(b) * calendarWidth
	default:
		return 1<<40 + int64(b)
	}
}

// FuzzEventQueue interleaves pushes (at ≥ the time of the last pop)
// and pops on the calendar and checks every pop, and the drain at the
// end, against refQueue. Each op is two bytes: the low bit of the
// first picks push or pop, and a push's delay comes from queueDelay.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q calendar
		var ref refQueue
		now := int64(0)
		check := func() {
			at, msg := q.pop()
			want := ref.pop()
			if at != want.at || msg.Payload != want.id {
				t.Fatalf("pop = (%d, %v), want (%d, %d)", at, msg.Payload, want.at, want.id)
			}
			now = at
		}
		for i := 0; i+1 < len(ops); i += 2 {
			if ops[i]&1 == 1 {
				if len(ref.evs) > 0 {
					check()
				}
				continue
			}
			at := now + queueDelay(ops[i], ops[i+1])
			q.push(at, Message{Payload: i})
			ref.push(at, i)
			if q.n != len(ref.evs) {
				t.Fatalf("len = %d, want %d", q.n, len(ref.evs))
			}
		}
		for len(ref.evs) > 0 {
			check()
		}
		if q.n != 0 || q.occupied != 0 {
			t.Fatalf("drained queue holds len %d, occupied %b", q.n, q.occupied)
		}
	})
}

func TestNegativeDelayRejected(t *testing.T) {
	n := NewNetwork(WithDelay(func(from, to Addr) int64 {
		if from == 0 && to == 1 {
			return -3
		}
		return 1
	}))
	_ = n.Attach(0, &burst{to: 1, count: 1})
	_ = n.Attach(1, &recorder{})
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "negative delay -3") || !strings.Contains(msg, "0→1") {
			t.Fatalf("panic = %v, want a negative-delay panic naming link 0→1", r)
		}
		if n.Now() != 0 {
			t.Errorf("time moved to %d", n.Now())
		}
	}()
	_, _ = n.Run(10)
	t.Fatal("a negative delay was accepted")
}

func TestResetDropsQueuedPayloads(t *testing.T) {
	n := NewNetwork(WithDelay(func(from, _ Addr) int64 { return 1 + int64(from)*70 }))
	_ = n.Attach(0, &flooder{peer: 1})
	_ = n.Attach(1, &flooder{peer: 0})
	_ = n.Attach(2, &burst{to: 0, count: 40})
	if _, err := n.Run(25); err == nil {
		t.Fatal("run should exhaust its budget")
	}
	if n.Quiescent() {
		t.Fatal("the exhausted run left nothing queued")
	}
	n.Reset()
	if !n.Quiescent() {
		t.Fatal("Reset left events queued")
	}
	for i, c := range n.queue.cells[:cap(n.queue.cells)] {
		if c.msg.Payload != nil {
			t.Fatalf("queue storage cell %d still holds payload %v", i, c.msg.Payload)
		}
	}
}

// farNode passes a counter back and forth with its peer up to 200.
type farNode struct {
	peer Addr
	got  []int
}

func (f *farNode) Init(ctx Context) {
	if ctx.Self() == 0 {
		ctx.Send(f.peer, 0)
	}
}

func (f *farNode) Recv(ctx Context, m Message) {
	v := m.Payload.(int)
	f.got = append(f.got, v)
	if v < 200 {
		ctx.Send(f.peer, v+1)
	}
}

func TestHugeDelayDeliversInOrder(t *testing.T) {
	const far = int64(1) << 40
	delay := WithDelay(func(from, _ Addr) int64 {
		if from == 0 {
			return far
		}
		return 1
	})
	n := NewNetwork()
	a, b := &farNode{peer: 1}, &farNode{peer: 0}
	run := func() {
		n.Reset()
		delay(n)
		a.got, b.got = a.got[:0], b.got[:0]
		_ = n.Attach(0, a)
		_ = n.Attach(1, b)
		if _, err := n.Run(1000); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if want := 100 * (far + 1); n.Now() != want+far {
		t.Errorf("run ended at %d, want %d", n.Now(), want+far)
	}
	if got := fmt.Sprint(b.got[:3], a.got[:3]); got != "[0 2 4] [1 3 5]" {
		t.Errorf("deliveries %s, want [0 2 4] [1 3 5]", got)
	}
	// The queue's storage is sized by events in flight, not by delay:
	// a rerun on the reset network allocates only its counter
	// snapshot (ints below 256 box without allocating).
	if allocs := testing.AllocsPerRun(5, run); allocs > 10 {
		t.Errorf("a rerun allocates %.0f times", allocs)
	}
}
