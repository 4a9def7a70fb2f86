package sign

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// hmacOracle is crypto/hmac's HMAC-SHA256 under key of msg.
func hmacOracle(key, msg []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	return h.Sum(nil)
}

// TestHMACRFC4231 checks hmacSum against the HMAC-SHA256 test cases of
// RFC 4231 (case 5 truncates its output and is left out) and against
// crypto/hmac. Cases 6 and 7 take the path for keys longer than a
// block.
func TestHMACRFC4231(t *testing.T) {
	for _, tc := range []struct {
		name      string
		key, data []byte
		want      string
	}{
		{"1", bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		{"2", []byte("Jefe"), []byte("what do ya want for nothing?"),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
		{"3", bytes.Repeat([]byte{0xaa}, 20), bytes.Repeat([]byte{0xdd}, 50),
			"773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
		{"4", []byte{
			0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
			0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19,
		}, bytes.Repeat([]byte{0xcd}, 50),
			"82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
		{"6", bytes.Repeat([]byte{0xaa}, 131), []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
		{"7", bytes.Repeat([]byte{0xaa}, 131), []byte("This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."),
			"9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
	} {
		got := hmacSum(tc.key, append(make([]byte, sha256.BlockSize), tc.data...))
		if h := hex.EncodeToString(got[:]); h != tc.want {
			t.Errorf("case %s: hmacSum = %s, want %s", tc.name, h, tc.want)
		}
		if oracle := hmacOracle(tc.key, tc.data); !bytes.Equal(got[:], oracle) {
			t.Errorf("case %s: hmacSum = %x, crypto/hmac = %x", tc.name, got, oracle)
		}
	}
}

// TestMACMatchesCryptoHMAC checks mac against crypto/hmac over the
// message it authenticates, for random keys (empty, shorter than,
// equal to and longer than a block), signer names, sequence numbers
// and payloads of 0 to 2 KiB, which runs past mac's stack buffer.
func TestMACMatchesCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		key := make([]byte, []int{0, 1, 32, sha256.BlockSize, sha256.BlockSize + 1, 200}[rng.Intn(6)])
		rng.Read(key)
		signer := make([]byte, rng.Intn(24))
		rng.Read(signer)
		seq := rng.Uint64()
		payload := make([]byte, rng.Intn(2049))
		rng.Read(payload)

		msg := append(append(signer, 0), binary.BigEndian.AppendUint64(nil, seq)...)
		msg = append(msg, payload...)
		if got, want := mac(key, string(signer), seq, payload), hmacOracle(key, msg); !bytes.Equal(got[:], want) {
			t.Fatalf("case %d (key %d bytes, signer %d, payload %d): mac = %x, crypto/hmac = %x",
				i, len(key), len(signer), len(payload), got, want)
		}
	}
}

// TestMACAllocatesNothing pins the allocations of the signing path for
// a report-sized payload: mac none, Sign only the envelope's copy of
// the payload, and Verify none.
func TestMACAllocatesNothing(t *testing.T) {
	a := NewAuthority()
	s, err := a.Register("node-12")
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{7}, 32)
	payload := make([]byte, 1024)
	if n := testing.AllocsPerRun(100, func() { mac(key, "node-12", 9, payload) }); n != 0 {
		t.Errorf("mac allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Sign(payload) }); n != 1 {
		t.Errorf("Sign allocates %v times per call, want 1 (the payload copy)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := a.Verify(s.Sign(payload)); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Sign and Verify allocate %v times per call, want 1 (the payload copy)", n)
	}
}
