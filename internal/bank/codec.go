package bank

import (
	"encoding/binary"
	"errors"
	"slices"
	"unicode/utf8"

	"repro/internal/fpss"
	"repro/internal/graph"
)

// A StateReport is signed in a compact binary form. Bank and nodes
// share one process, so the payload exists only to give the signer
// bytes:
//
//	node                                  varint
//	costsHash, routingHash, pricingHash   32 raw bytes each
//	mirrors marker                        uvarint: 0 for nil, else 1+count
//	  per mirror, ascending principal:    varint principal, routingHash, pricingHash
//	flags marker                          uvarint: 0 for nil, else 1+count
//	  per flag:                           varint reporter, varint principal,
//	                                      uvarint len(reason), reason bytes
//
// decodeReport is strict: it rejects truncated input, trailing bytes,
// non-minimal varints and mirror principals that do not increase, so
// an accepted payload is the encoding of exactly one report.

var (
	errTruncated   = errors.New("truncated")
	errTrailing    = errors.New("trailing bytes")
	errVarint      = errors.New("non-minimal or out-of-range varint")
	errMirrorOrder = errors.New("mirror principals not increasing")
)

const hashSize = len(fpss.Hash{})

// appendReport appends the binary encoding of rep to b.
func appendReport(b []byte, rep StateReport) []byte {
	b = binary.AppendVarint(b, int64(rep.Node))
	b = append(b, rep.CostsHash[:]...)
	b = append(b, rep.RoutingHash[:]...)
	b = append(b, rep.PricingHash[:]...)
	b = appendMarker(b, rep.Mirrors == nil, len(rep.Mirrors))
	ids := make([]graph.NodeID, 0, len(rep.Mirrors))
	for p := range rep.Mirrors {
		ids = append(ids, p)
	}
	slices.Sort(ids)
	for _, p := range ids {
		m := rep.Mirrors[p]
		b = binary.AppendVarint(b, int64(p))
		b = append(b, m.RoutingHash[:]...)
		b = append(b, m.PricingHash[:]...)
	}
	b = appendMarker(b, rep.Flags == nil, len(rep.Flags))
	for _, f := range rep.Flags {
		b = binary.AppendVarint(b, int64(f.Reporter))
		b = binary.AppendVarint(b, int64(f.Principal))
		b = binary.AppendUvarint(b, uint64(len(f.Reason)))
		b = append(b, f.Reason...)
	}
	return b
}

func appendMarker(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// encodedCap bounds appendReport's output, so one allocation holds it.
func encodedCap(rep StateReport) int {
	n := 3*binary.MaxVarintLen64 + 3*hashSize + len(rep.Mirrors)*(binary.MaxVarintLen64+2*hashSize)
	for _, f := range rep.Flags {
		n += 3*binary.MaxVarintLen64 + len(f.Reason)
	}
	return n
}

// decoder reads a payload front to back and keeps the first error.
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
	case n <= 0:
		d.fail(errTruncated) // n < 0 is an overflow: more bytes than a uint64 holds
		return 0
	case n > 1 && d.b[n-1] == 0:
		d.fail(errVarint)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) id() graph.NodeID {
	u := d.uvarint()
	v := int64(u >> 1) // zigzag, as binary.Varint
	if u&1 != 0 {
		v = ^v
	}
	if int64(graph.NodeID(v)) != v {
		d.fail(errVarint)
	}
	return graph.NodeID(v)
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

func (d *decoder) hash() (h fpss.Hash) {
	copy(h[:], d.bytes(uint64(hashSize)))
	return h
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

// decodeReport is the inverse of appendReport.
func decodeReport(b []byte) (StateReport, error) {
	d := decoder{b: b}
	rep := StateReport{Node: d.id(), CostsHash: d.hash(), RoutingHash: d.hash(), PricingHash: d.hash()}
	if n := d.count(1 + 2*hashSize); n >= 0 {
		rep.Mirrors = make(map[graph.NodeID]MirrorReport, n)
		var last graph.NodeID
		for i := 0; i < n && d.err == nil; i++ {
			p := d.id()
			if i > 0 && p <= last {
				d.fail(errMirrorOrder)
			}
			last = p
			rep.Mirrors[p] = MirrorReport{RoutingHash: d.hash(), PricingHash: d.hash()}
		}
	}
	if n := d.count(3); n >= 0 {
		rep.Flags = make([]Flag, n)
		for i := 0; i < n && d.err == nil; i++ {
			f := &rep.Flags[i]
			f.Reporter, f.Principal = d.id(), d.id()
			f.Reason = string(d.bytes(d.uvarint()))
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail(errTrailing)
	}
	return rep, d.err
}

// jsonLen returns len(json.Marshal(rep)) without encoding anything.
// E4 counts a report's bytes in the JSON form its struct tags define,
// which writes every hash as an array of 32 decimal numbers.
func jsonLen(rep StateReport) int {
	n := len(`{"node":`) + intLen(int64(rep.Node)) +
		len(`,"costsHash":`) + hashJSONLen(rep.CostsHash) +
		len(`,"routingHash":`) + hashJSONLen(rep.RoutingHash) +
		len(`,"pricingHash":`) + hashJSONLen(rep.PricingHash) +
		len(`,"mirrors":`) + len(`,"flags":`) + len(`}`)
	if rep.Mirrors == nil {
		n += len("null")
	} else {
		n += len("{}") + max(len(rep.Mirrors)-1, 0) // braces and commas
		for p, m := range rep.Mirrors {
			n += len(`"":{"routingHash":`) + intLen(int64(p)) + hashJSONLen(m.RoutingHash) +
				len(`,"pricingHash":`) + hashJSONLen(m.PricingHash) + len(`}`)
		}
	}
	if rep.Flags == nil {
		n += len("null")
	} else {
		n += len("[]") + max(len(rep.Flags)-1, 0)
		for _, f := range rep.Flags {
			n += len(`{"reporter":`) + intLen(int64(f.Reporter)) +
				len(`,"principal":`) + intLen(int64(f.Principal)) +
				len(`,"reason":`) + stringJSONLen(f.Reason) + len(`}`)
		}
	}
	return n
}

// intLen is the length of v in decimal, sign included.
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// byteDigits[b] is the length of b in decimal.
var byteDigits = func() (t [256]uint8) {
	for b := range t {
		t[b] = uint8(intLen(int64(b)))
	}
	return t
}()

// hashJSONLen is the length of h as a JSON array of byte values.
func hashJSONLen(h fpss.Hash) int {
	n := len("[]") + hashSize - 1 // brackets and commas
	for _, b := range h {
		n += int(byteDigits[b])
	}
	return n
}

// stringJSONLen is the length of s as encoding/json quotes it, with
// its HTML-safe escapes, and with each invalid UTF-8 byte written as
// \ufffd and U+2028/U+2029 escaped.
func stringJSONLen(s string) int {
	n := len(`""`)
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			switch {
			case b == '"' || b == '\\' || b == '\b' || b == '\f' || b == '\n' || b == '\r' || b == '\t':
				n += 2
			case b < 0x20 || b == '<' || b == '>' || b == '&':
				n += len(`\u0000`)
			default:
				n++
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1, r == '\u2028', r == '\u2029':
			n += len(`\ufffd`)
		default:
			n += size
		}
		i += size
	}
	return n
}
