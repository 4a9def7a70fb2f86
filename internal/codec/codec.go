// Package codec holds the pieces of the project's strict binary
// layouts: the appenders for strings, bools and nil-or-count markers,
// and one Decoder that reads them back. An integer is a zigzag varint
// and a length or count a uvarint, as encoding/binary writes them; a
// string is its length and its bytes; a bool is one byte, 0 or 1; a
// marker is 0 for a nil slice, else 1+count, so nil stays apart from
// empty.
//
// The Decoder rejects truncated input, trailing bytes, non-minimal or
// overflowing varints, bools other than 0 or 1, and any count that the
// remaining bytes cannot hold, so a layout built from its reads accepts
// only the encoding of exactly one value.
package codec

import (
	"encoding/binary"
	"errors"
)

// The decode errors. A Decoder keeps the first one it meets.
var (
	ErrTruncated = errors.New("truncated")
	ErrTrailing  = errors.New("trailing bytes")
	ErrVarint    = errors.New("non-minimal or out-of-range varint")
	ErrBool      = errors.New("bool neither 0 nor 1")
)

// AppendString appends s as its uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendMarker appends a slice's marker: 0 when it is nil, else 1+n.
func AppendMarker(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// Decoder reads an encoding front to back and keeps the first error.
// After an error every read returns a zero value.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over b. The slices Bytes returns alias b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Fail records err unless an earlier error stands, and drops the rest
// of the input.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Uvarint reads a minimal uvarint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.Fail(ErrTruncated)
		return 0
	case n < 0 || n > 1 && d.b[n-1] == 0: // n < 0: more bits than a uint64 holds
		d.Fail(ErrVarint)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a minimal zigzag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1) // zigzag, as binary.Varint
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a varint that must fit in an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail(ErrVarint)
		return 0
	}
	return int(v)
}

// Bool reads one byte, 0 or 1.
func (d *Decoder) Bool() bool {
	switch {
	case len(d.b) == 0:
		d.Fail(ErrTruncated)
		return false
	case d.b[0] > 1:
		d.Fail(ErrBool)
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// Bytes reads the next n bytes.
func (d *Decoder) Bytes(n uint64) []byte {
	if uint64(len(d.b)) < n {
		d.Fail(ErrTruncated)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// Str reads a string written by AppendString. It is not named String,
// which would make a Decoder a fmt.Stringer that consumes its input
// when printed.
func (d *Decoder) Str() string { return string(d.Bytes(d.Uvarint())) }

// Count reads a marker written by AppendMarker and returns -1 for nil.
// A count that the remaining bytes cannot hold at minSize bytes per
// element is truncated input, which also keeps a hostile count from
// sizing an allocation.
func (d *Decoder) Count(minSize int) int {
	switch m := d.Uvarint(); {
	case d.err != nil || m == 0:
		return -1
	case m-1 > uint64(len(d.b)/minSize):
		d.Fail(ErrTruncated)
		return -1
	default:
		return int(m - 1)
	}
}

// End fails on trailing bytes and returns the first error.
func (d *Decoder) End() error {
	if d.err == nil && len(d.b) > 0 {
		d.Fail(ErrTrailing)
	}
	return d.err
}
