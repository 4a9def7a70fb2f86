package live

import (
	"encoding/binary"
	"errors"

	"repro/internal/sim"
)

// A frame body carries every field of a Request or a Response in a
// fixed order. An integer is a zigzag varint and a length or count a
// uvarint, as encoding/binary writes them; a string is its length and
// its bytes; a bool is one byte, 0 or 1.
//
//	Request   op string, src, dst, packets, node, deviation string,
//	          advance bool
//	Response  ok bool, err string,
//	          path marker, then each hop,
//	          cost,
//	          payments marker, then each payment's to and amount,
//	          total, epoch,
//	          stats bool; when 1, the Stats epoch, epochs, n,
//	          deviant string, deviantNode, divergence, then the ten
//	          sim.Counters fields in the order netCounters lists
//
// A marker is 0 for a nil slice, else 1+count, so nil stays apart from
// empty. decodeRequest and decodeResponse are strict, as the checkpoint
// report codec in internal/bank is: they reject truncated input,
// trailing bytes, non-minimal varints, bools other than 0 or 1, and any
// count that the remaining bytes cannot hold, so an accepted body is
// the encoding of exactly one value.

var (
	errTruncated = errors.New("truncated")
	errTrailing  = errors.New("trailing bytes")
	errVarint    = errors.New("non-minimal or out-of-range varint")
	errBool      = errors.New("bool neither 0 nor 1")
)

// ops are the defined operations; decoding one of them allocates
// nothing.
var ops = [...]Op{OpRoute, OpPay, OpStats, OpInject}

// appendRequest appends the body encoding of req to b.
func appendRequest(b []byte, req Request) []byte {
	b = appendString(b, string(req.Op))
	b = binary.AppendVarint(b, int64(req.Src))
	b = binary.AppendVarint(b, int64(req.Dst))
	b = binary.AppendVarint(b, req.Packets)
	b = binary.AppendVarint(b, int64(req.Node))
	b = appendString(b, req.Deviation)
	return appendBool(b, req.Advance)
}

// appendResponse appends the body encoding of resp to b.
func appendResponse(b []byte, resp Response) []byte {
	b = appendBool(b, resp.OK)
	b = appendString(b, resp.Err)
	b = appendMarker(b, resp.Path == nil, len(resp.Path))
	for _, h := range resp.Path {
		b = binary.AppendVarint(b, int64(h))
	}
	b = binary.AppendVarint(b, resp.Cost)
	b = appendMarker(b, resp.Payments == nil, len(resp.Payments))
	for _, p := range resp.Payments {
		b = binary.AppendVarint(b, int64(p.To))
		b = binary.AppendVarint(b, p.Amount)
	}
	b = binary.AppendVarint(b, resp.Total)
	b = binary.AppendVarint(b, int64(resp.Epoch))
	s := resp.Stats
	b = appendBool(b, s != nil)
	if s == nil {
		return b
	}
	b = binary.AppendVarint(b, int64(s.Epoch))
	b = binary.AppendVarint(b, int64(s.Epochs))
	b = binary.AppendVarint(b, int64(s.N))
	b = appendString(b, s.Deviant)
	b = binary.AppendVarint(b, int64(s.DeviantNode))
	b = binary.AppendVarint(b, int64(s.Divergence))
	for _, c := range netCounters(&s.Net) {
		b = binary.AppendVarint(b, *c)
	}
	return b
}

// netCounters lists the fields of c in wire order.
func netCounters(c *sim.Counters) [10]*int64 {
	return [...]*int64{&c.Sent, &c.Delivered, &c.Dropped, &c.Retried, &c.Lost,
		&c.Crashes, &c.Restarts, &c.CrashDropped, &c.Bytes, &c.Steps}
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendMarker(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// decoder reads a body front to back and keeps the first error.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail(errTruncated)
		return 0
	case n < 0 || n > 1 && d.b[n-1] == 0: // n < 0: more bits than a uint64 holds
		d.fail(errVarint)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1) // zigzag, as binary.Varint
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail(errVarint)
		return 0
	}
	return int(v)
}

func (d *decoder) bool() bool {
	switch {
	case len(d.b) == 0:
		d.fail(errTruncated)
		return false
	case d.b[0] > 1:
		d.fail(errBool)
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *decoder) bytes(n uint64) []byte {
	if uint64(len(d.b)) < n {
		d.fail(errTruncated)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) string() string { return string(d.bytes(d.uvarint())) }

func (d *decoder) op() Op {
	b := d.bytes(d.uvarint())
	for _, op := range ops {
		if string(b) == string(op) {
			return op
		}
	}
	return Op(b)
}

// count reads a nil-or-count marker and returns -1 for nil. A count
// that the remaining bytes cannot hold at minSize bytes per element is
// truncated input, which also keeps a hostile count from sizing an
// allocation.
func (d *decoder) count(minSize int) int {
	switch m := d.uvarint(); {
	case d.err != nil || m == 0:
		return -1
	case m-1 > uint64(len(d.b)/minSize):
		d.fail(errTruncated)
		return -1
	default:
		return int(m - 1)
	}
}

// end fails on trailing bytes and returns the first error.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail(errTrailing)
	}
	return d.err
}

// decodeRequest is the inverse of appendRequest.
func decodeRequest(b []byte) (Request, error) {
	d := decoder{b: b}
	req := Request{Op: d.op(), Src: d.int(), Dst: d.int(), Packets: d.varint(),
		Node: d.int(), Deviation: d.string(), Advance: d.bool()}
	return req, d.end()
}

// decodeResponse is the inverse of appendResponse. On an error it
// returns what it decoded so far.
func decodeResponse(b []byte) (Response, error) {
	d := decoder{b: b}
	resp := Response{OK: d.bool(), Err: d.string()}
	if n := d.count(1); n >= 0 {
		resp.Path = make([]int, n)
		for i := range resp.Path {
			resp.Path[i] = d.int()
		}
	}
	resp.Cost = d.varint()
	if n := d.count(2); n >= 0 {
		resp.Payments = make([]Payment, n)
		for i := range resp.Payments {
			p := &resp.Payments[i]
			p.To, p.Amount = d.int(), d.varint()
		}
	}
	resp.Total, resp.Epoch = d.varint(), d.int()
	if d.bool() {
		s := &Stats{Epoch: d.int(), Epochs: d.int(), N: d.int(), Deviant: d.string(),
			DeviantNode: d.int(), Divergence: d.int()}
		for _, c := range netCounters(&s.Net) {
			*c = d.varint()
		}
		resp.Stats = s
	}
	return resp, d.end()
}
