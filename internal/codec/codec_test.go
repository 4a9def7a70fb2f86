package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestAppendersRoundTrip reads back what the appenders and
// encoding/binary write, in order, and leaves no byte behind.
func TestAppendersRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendVarint(b, -3)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "héllo")
	b = AppendString(b, "")
	b = AppendMarker(b, true, 0)
	b = AppendMarker(b, false, 0)
	b = AppendMarker(b, false, 2)
	b = append(b, 7, 8)
	d := NewDecoder(b)
	got := []any{d.Uvarint(), d.Varint(), d.Int(), d.Bool(), d.Bool(), d.Str(), d.Str(),
		d.Count(1), d.Count(1), d.Count(1), d.Bytes(2)}
	want := []any{uint64(math.MaxUint64), int64(math.MinInt64), -3, true, false, "héllo", "",
		-1, 0, 2, []byte{7, 8}}
	if err := d.End(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read %v, %v; want %v, nil", got, err, want)
	}
}

// TestDecoderIsStrict pins the error each kind of bad input gives, and
// that the first error stands: every later read returns a zero value.
func TestDecoderIsStrict(t *testing.T) {
	read := map[string]func(*Decoder) any{
		"uvarint": func(d *Decoder) any { return d.Uvarint() },
		"varint":  func(d *Decoder) any { return d.Varint() },
		"bool":    func(d *Decoder) any { return d.Bool() },
		"str":     func(d *Decoder) any { return d.Str() },
		"bytes3":  func(d *Decoder) any { return d.Bytes(3) },
		"count2":  func(d *Decoder) any { return d.Count(2) },
	}
	for _, tc := range []struct {
		read string
		in   []byte
		want error
	}{
		{"uvarint", nil, ErrTruncated},
		{"uvarint", []byte{0x80}, ErrTruncated},
		{"uvarint", []byte{0x80, 0x00}, ErrVarint},
		{"uvarint", bytes.Repeat([]byte{0xff}, 11), ErrVarint},
		{"varint", []byte{0x86, 0x00}, ErrVarint},
		{"bool", nil, ErrTruncated},
		{"bool", []byte{2}, ErrBool},
		{"str", []byte{3, 'a', 'b'}, ErrTruncated},
		{"bytes3", []byte{1, 2}, ErrTruncated},
		{"count2", []byte{3, 0, 0, 0}, ErrTruncated}, // two elements need 4 bytes
		{"uvarint", []byte{1, 9}, ErrTrailing},
	} {
		d := NewDecoder(tc.in)
		read[tc.read](&d)
		if tc.want != ErrTrailing {
			if v := read["uvarint"](&d); v != uint64(0) {
				t.Errorf("%s %x: read %v after the error, want 0", tc.read, tc.in, v)
			}
		}
		if err := d.End(); !errors.Is(err, tc.want) {
			t.Errorf("%s %x: %v, want %v", tc.read, tc.in, err, tc.want)
		}
	}
}
