package sim

import "math/bits"

// calendarWidth is the number of calendar buckets, one per tick of
// delivery time modulo it (R. Brown, "Calendar Queues", CACM 31(10),
// 1988). A power of two, so the bucket of a time is a mask, and 64, so
// one word records which buckets hold events. It does not grow with
// the delay: an event due a lap or more ahead waits in its bucket
// behind the nearer ones, which is Brown's "next year".
const calendarWidth = 64

// cell is one queued event in the calendar's arena. next links it to
// the next event of its bucket, or to the next free cell; it holds an
// arena index plus one, so 0 ends a list.
type cell struct {
	at   int64
	next int32
	msg  Message
}

// bucket is a singly linked list of cells in delivery order: ascending
// time, then push order. With delays under the width a bucket holds
// one time and push only appends.
type bucket struct{ head, tail int32 }

// calendar is the network's event queue: it pops events by delivery
// time, ties in push order. Push and pop are O(1) when delays stay
// under calendarWidth, which covers the unit-delay and retry-envelope
// traffic of every protocol run; a longer delay only costs a walk of
// the one bucket it lands in. No event may be due before the time of
// the last pop, which holds because delays are never negative.
type calendar struct {
	buckets [calendarWidth]bucket
	// occupied has bit b set iff bucket b is non-empty.
	occupied uint64
	// cells is the arena every bucket links through; free heads the
	// list of popped cells ready for reuse.
	cells []cell
	free  int32
	// cur is the time of the last pop: no queued event is due before it.
	cur int64
	// n is the number of queued events.
	n int
}

// push queues msg for delivery at at, which must not be before the
// time of the last pop.
func (q *calendar) push(at int64, msg Message) {
	var i int32
	if q.free != 0 {
		i = q.free
		q.free = q.cells[i-1].next
	} else {
		if len(q.cells) == cap(q.cells) {
			q.cells = append(q.cells, cell{})
		} else {
			q.cells = q.cells[:len(q.cells)+1]
		}
		i = int32(len(q.cells))
	}
	c := &q.cells[i-1]
	c.at, c.next, c.msg = at, 0, msg
	q.n++
	slot := at & (calendarWidth - 1)
	b := &q.buckets[slot]
	switch {
	case b.head == 0:
		b.head, b.tail = i, i
		q.occupied |= 1 << slot
	case q.cells[b.tail-1].at <= at:
		q.cells[b.tail-1].next = i
		b.tail = i
	default:
		// The bucket holds an event a lap or more later: insert before
		// the first cell due after at, behind every one due with it.
		link := &b.head
		for q.cells[*link-1].at <= at {
			link = &q.cells[*link-1].next
		}
		c.next = *link
		*link = i
	}
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *calendar) pop() (int64, Message) {
	// Walk the occupied buckets from cur's onwards, one lap at most:
	// the first whose head is due in this lap holds the minimum.
	off := q.cur & (calendarWidth - 1)
	slot := int64(-1)
	for rest := bits.RotateLeft64(q.occupied, -int(off)); rest != 0; rest &= rest - 1 {
		k := int64(bits.TrailingZeros64(rest))
		s := (off + k) & (calendarWidth - 1)
		if q.cells[q.buckets[s].head-1].at == q.cur+k {
			slot = s
			break
		}
	}
	if slot < 0 {
		// Nothing is due within a lap: jump to the earliest head.
		for rest := q.occupied; rest != 0; rest &= rest - 1 {
			s := int64(bits.TrailingZeros64(rest))
			if slot < 0 || q.cells[q.buckets[s].head-1].at < q.cells[q.buckets[slot].head-1].at {
				slot = s
			}
		}
	}
	b := &q.buckets[slot]
	i := b.head
	c := &q.cells[i-1]
	at, msg := c.at, c.msg
	b.head = c.next
	if b.head == 0 {
		b.tail = 0
		q.occupied &^= 1 << slot
	}
	// Only the payload can keep anything alive; the rest of the cell
	// is overwritten on reuse.
	c.msg.Payload = nil
	c.next, q.free = q.free, i
	q.cur = at
	q.n--
	if q.n == 0 {
		// Every cell is free: restart the arena from its front.
		q.cells, q.free = q.cells[:0], 0
	}
	return at, msg
}

// reset empties the queue, keeping the arena's storage. Cells past
// len(cells) hold no payload: pop clears each payload, and the arena
// is truncated only once every cell has been popped.
func (q *calendar) reset() {
	clear(q.cells)
	q.cells = q.cells[:0]
	q.buckets = [calendarWidth]bucket{}
	q.occupied, q.free, q.cur, q.n = 0, 0, 0, 0
}
