package bank

import (
	"encoding/binary"
	"errors"
	"unicode/utf8"

	"repro/internal/codec"
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
// decodeReport reads it with the strict codec.Decoder, which rejects
// truncated input, trailing bytes and non-minimal or overflowing
// varints, and itself rejects mirror principals that do not increase,
// so an accepted payload is the encoding of exactly one report.

var errMirrorOrder = errors.New("mirror principals not increasing")

const hashSize = len(fpss.Hash{})

// appendReport appends the binary encoding of rep to b.
func appendReport(b []byte, rep StateReport) []byte {
	b = binary.AppendVarint(b, int64(rep.Node))
	b = append(b, rep.CostsHash[:]...)
	b = append(b, rep.RoutingHash[:]...)
	b = append(b, rep.PricingHash[:]...)
	b = codec.AppendMarker(b, rep.Mirrors == nil, len(rep.Mirrors))
	for _, m := range rep.Mirrors {
		b = binary.AppendVarint(b, int64(m.Principal))
		b = append(b, m.RoutingHash[:]...)
		b = append(b, m.PricingHash[:]...)
	}
	b = codec.AppendMarker(b, rep.Flags == nil, len(rep.Flags))
	for _, f := range rep.Flags {
		b = binary.AppendVarint(b, int64(f.Reporter))
		b = binary.AppendVarint(b, int64(f.Principal))
		b = codec.AppendString(b, f.Reason)
	}
	return b
}

func readID(d *codec.Decoder) graph.NodeID { return graph.NodeID(d.Int()) }

func readHash(d *codec.Decoder) (h fpss.Hash) {
	copy(h[:], d.Bytes(uint64(hashSize)))
	return h
}

// decodeReport is the inverse of appendReport.
func decodeReport(b []byte) (StateReport, error) {
	d := codec.NewDecoder(b)
	rep := StateReport{Node: readID(&d), CostsHash: readHash(&d), RoutingHash: readHash(&d), PricingHash: readHash(&d)}
	if n := d.Count(1 + 2*hashSize); n >= 0 {
		rep.Mirrors = make([]MirrorReport, n)
		for i := range rep.Mirrors {
			m := &rep.Mirrors[i]
			if m.Principal = readID(&d); i > 0 && m.Principal <= rep.Mirrors[i-1].Principal {
				d.Fail(errMirrorOrder)
			}
			m.RoutingHash, m.PricingHash = readHash(&d), readHash(&d)
		}
	}
	if n := d.Count(3); n >= 0 {
		rep.Flags = make([]Flag, n)
		for i := range rep.Flags {
			f := &rep.Flags[i]
			f.Reporter, f.Principal, f.Reason = readID(&d), readID(&d), d.Str()
		}
	}
	return rep, d.End()
}

// jsonLen returns the length of rep's JSON form without encoding
// anything. E4 counts a report's bytes in that form (see StateReport):
// what encoding/json writes for the struct tags, with the mirrors as
// an object keyed by principal and every hash as an array of 32
// decimal numbers.
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
		for _, m := range rep.Mirrors {
			n += len(`"":{"routingHash":`) + intLen(int64(m.Principal)) + hashJSONLen(m.RoutingHash) +
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
