package bank

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/fpss"
	"repro/internal/graph"
)

// reasonPieces are the fragments random flag reasons are built from:
// plain text plus every byte class encoding/json escapes or rewrites.
var reasonPieces = []string{
	"spoofed forward", "a", "Z9", " ", "~", "\x7f",
	`"`, `\`, "<", ">", "&",
	"\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1b", "\x1f",
	"\u2028", "\u2029", "é", "世", "\U0001F600", "\ufffd",
	"\xff", "\xc3", "\xe4\xb8", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

func randID(rng *rand.Rand) graph.NodeID {
	switch rng.Intn(6) {
	case 0:
		return graph.NodeID(rng.Intn(10))
	case 1:
		return -graph.NodeID(1 + rng.Intn(1000))
	case 2:
		return graph.NodeID(rng.Int63())
	case 3:
		return []graph.NodeID{math.MinInt64, math.MaxInt64, -1, 63, 64, -64, -65}[rng.Intn(7)]
	default:
		return graph.NodeID(rng.Intn(100_000))
	}
}

func randHash(rng *rand.Rand) (h fpss.Hash) {
	rng.Read(h[:])
	return h
}

func randReport(rng *rand.Rand) StateReport {
	rep := StateReport{
		Node:        randID(rng),
		CostsHash:   randHash(rng),
		RoutingHash: randHash(rng),
		PricingHash: randHash(rng),
	}
	if k := rng.Intn(8) - 1; k >= 0 { // nil one time in eight, else possibly empty
		ids := make([]graph.NodeID, k)
		for i := range ids {
			ids[i] = randID(rng)
		}
		slices.Sort(ids)
		ids = slices.Compact(ids) // strictly ascending, as a node reports them
		rep.Mirrors = make([]MirrorReport, len(ids))
		for i, p := range ids {
			rep.Mirrors[i] = MirrorReport{Principal: p, RoutingHash: randHash(rng), PricingHash: randHash(rng)}
		}
	}
	if k := rng.Intn(6) - 1; k >= 0 {
		rep.Flags = make([]Flag, k)
		for i := range rep.Flags {
			var reason strings.Builder
			for j := rng.Intn(6); j > 0; j-- {
				reason.WriteString(reasonPieces[rng.Intn(len(reasonPieces))])
			}
			rep.Flags[i] = Flag{Reporter: randID(rng), Principal: randID(rng), Reason: reason.String()}
		}
	}
	return rep
}

// jsonSize is the length of rep's JSON form as encoding/json writes it:
// the struct tags, with the mirrors as an object keyed by principal.
func jsonSize(t testing.TB, rep StateReport) int {
	form := struct {
		StateReport
		Mirrors map[graph.NodeID]MirrorReport `json:"mirrors"`
	}{StateReport: rep}
	if rep.Mirrors != nil {
		form.Mirrors = make(map[graph.NodeID]MirrorReport, len(rep.Mirrors))
		for _, m := range rep.Mirrors {
			form.Mirrors[m.Principal] = m
		}
	}
	b, err := json.Marshal(form)
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

// TestReportCodec is the codec's oracle: over seeded random reports,
// jsonLen equals the length of encoding/json's output (jsonSize),
// decoding an encoding returns the same report, and every proper
// prefix of an encoding, or an encoding with one byte more, is
// rejected.
func TestReportCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		rep := randReport(rng)
		if got, want := jsonLen(rep), jsonSize(t, rep); got != want {
			t.Fatalf("report %d: jsonLen = %d, len(json.Marshal) = %d\n%+v", i, got, want, rep)
		}
		enc := appendReport(nil, rep)
		got, err := decodeReport(enc)
		if err != nil {
			t.Fatalf("report %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("report %d: round trip\n got %+v\nwant %+v", i, got, rep)
		}
		for n := 0; n < len(enc); n++ {
			if _, err := decodeReport(enc[:n]); err == nil {
				t.Fatalf("report %d: %d-byte prefix of %d accepted", i, n, len(enc))
			}
		}
		if _, err := decodeReport(append(enc, byte(rng.Intn(256)))); err == nil {
			t.Fatalf("report %d: trailing byte accepted", i)
		}
	}
}

// TestDecodeRejectsMirrorsOutOfOrder: appendReport writes mirrors in
// the order it is given, and the bank decodes only an ascending list.
func TestDecodeRejectsMirrorsOutOfOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []graph.NodeID
	}{
		{"decreasing", []graph.NodeID{2, 1}},
		{"repeated", []graph.NodeID{1, 1}},
		{"decreasing after increasing", []graph.NodeID{-5, 7, 3}},
	} {
		rep := StateReport{Mirrors: make([]MirrorReport, len(tc.ids))}
		for i, p := range tc.ids {
			rep.Mirrors[i].Principal = p
		}
		if _, err := decodeReport(appendReport(nil, rep)); err != errMirrorOrder {
			t.Errorf("%s mirror principals %v: err = %v, want %v", tc.name, tc.ids, err, errMirrorOrder)
		}
	}
}

func TestDecodeRejectsNonMinimalVarint(t *testing.T) {
	enc := appendReport(nil, StateReport{Node: 3})
	// Node 3 zigzags to the one byte 0x06; 0x86 0x00 is the same value
	// padded to two bytes.
	padded := append([]byte{0x86, 0x00}, enc[1:]...)
	if _, err := decodeReport(padded); err != codec.ErrVarint {
		t.Errorf("padded varint: err = %v, want %v", err, codec.ErrVarint)
	}
	// Eleven 0xff bytes hold more bits than a uint64.
	overflow := append(bytes.Repeat([]byte{0xff}, 11), enc[1:]...)
	if _, err := decodeReport(overflow); err != codec.ErrVarint {
		t.Errorf("overflowing varint: err = %v, want %v", err, codec.ErrVarint)
	}
}

// FuzzReportCodec decodes arbitrary payloads. Decoding must never
// panic, and an accepted payload must be the canonical encoding of the
// report it decodes to, whose computed JSON length matches
// encoding/json.
func FuzzReportCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		f.Add(appendReport(nil, randReport(rng)))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rep, err := decodeReport(payload)
		if err != nil {
			return
		}
		enc := appendReport(nil, rep)
		if !bytes.Equal(enc, payload) {
			t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", payload, enc)
		}
		again, err := decodeReport(enc)
		if err != nil || !reflect.DeepEqual(again, rep) {
			t.Fatalf("re-encoding decodes to %+v, %v; want %+v", again, err, rep)
		}
		if got, want := jsonLen(rep), jsonSize(t, rep); got != want {
			t.Fatalf("jsonLen = %d, len(json.Marshal) = %d", got, want)
		}
	})
}
