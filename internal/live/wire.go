package live

import (
	"encoding/binary"

	"repro/internal/codec"
	"repro/internal/sim"
)

// A frame body carries every field of a Request or a Response in a
// fixed order, in internal/codec's layout: an integer is a zigzag
// varint, a string its length and its bytes, a bool one byte, and a
// slice a marker (0 for nil, else 1+count) and then its elements.
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
// decodeRequest and decodeResponse read it with the strict
// codec.Decoder, as the checkpoint report codec in internal/bank does,
// so an accepted body is the encoding of exactly one value.

// ops are the defined operations; decoding one of them allocates
// nothing.
var ops = [...]Op{OpRoute, OpPay, OpStats, OpInject}

// appendRequest appends the body encoding of req to b.
func appendRequest(b []byte, req Request) []byte {
	b = codec.AppendString(b, string(req.Op))
	b = binary.AppendVarint(b, int64(req.Src))
	b = binary.AppendVarint(b, int64(req.Dst))
	b = binary.AppendVarint(b, req.Packets)
	b = binary.AppendVarint(b, int64(req.Node))
	b = codec.AppendString(b, req.Deviation)
	return codec.AppendBool(b, req.Advance)
}

// appendResponse appends the body encoding of resp to b.
func appendResponse(b []byte, resp Response) []byte {
	b = codec.AppendBool(b, resp.OK)
	b = codec.AppendString(b, resp.Err)
	b = codec.AppendMarker(b, resp.Path == nil, len(resp.Path))
	for _, h := range resp.Path {
		b = binary.AppendVarint(b, int64(h))
	}
	b = binary.AppendVarint(b, resp.Cost)
	b = codec.AppendMarker(b, resp.Payments == nil, len(resp.Payments))
	for _, p := range resp.Payments {
		b = binary.AppendVarint(b, int64(p.To))
		b = binary.AppendVarint(b, p.Amount)
	}
	b = binary.AppendVarint(b, resp.Total)
	b = binary.AppendVarint(b, int64(resp.Epoch))
	s := resp.Stats
	b = codec.AppendBool(b, s != nil)
	if s == nil {
		return b
	}
	b = binary.AppendVarint(b, int64(s.Epoch))
	b = binary.AppendVarint(b, int64(s.Epochs))
	b = binary.AppendVarint(b, int64(s.N))
	b = codec.AppendString(b, s.Deviant)
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

// op reads an operation's name; one of ops allocates nothing.
func op(d *codec.Decoder) Op {
	b := d.Bytes(d.Uvarint())
	for _, o := range ops {
		if string(b) == string(o) {
			return o
		}
	}
	return Op(b)
}

// decodeRequest is the inverse of appendRequest.
func decodeRequest(b []byte) (Request, error) {
	d := codec.NewDecoder(b)
	req := Request{Op: op(&d), Src: d.Int(), Dst: d.Int(), Packets: d.Varint(),
		Node: d.Int(), Deviation: d.Str(), Advance: d.Bool()}
	return req, d.End()
}

// decodeResponse is the inverse of appendResponse. On an error it
// returns what it decoded so far.
func decodeResponse(b []byte) (Response, error) {
	d := codec.NewDecoder(b)
	resp := Response{OK: d.Bool(), Err: d.Str()}
	if n := d.Count(1); n >= 0 {
		resp.Path = make([]int, n)
		for i := range resp.Path {
			resp.Path[i] = d.Int()
		}
	}
	resp.Cost = d.Varint()
	if n := d.Count(2); n >= 0 {
		resp.Payments = make([]Payment, n)
		for i := range resp.Payments {
			p := &resp.Payments[i]
			p.To, p.Amount = d.Int(), d.Varint()
		}
	}
	resp.Total, resp.Epoch = d.Varint(), d.Int()
	if d.Bool() {
		s := &Stats{Epoch: d.Int(), Epochs: d.Int(), N: d.Int(), Deviant: d.Str(),
			DeviantNode: d.Int(), Divergence: d.Int()}
		for _, c := range netCounters(&s.Net) {
			*c = d.Varint()
		}
		resp.Stats = s
	}
	return resp, d.End()
}
