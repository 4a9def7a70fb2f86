package sign

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestSignVerifyRoundTrip(t *testing.T) {
	a := NewAuthority()
	s, err := a.Register("node-1")
	if err != nil {
		t.Fatal(err)
	}
	env := s.Sign([]byte("hello bank"))
	if err := a.Verify(env); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if env.Signer != "node-1" || env.Seq != 1 || string(env.Payload) != "hello bank" {
		t.Errorf("envelope = %+v, want signer node-1 seq 1", env)
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	a := NewAuthority()
	s, _ := a.Register("n")
	env := s.Sign([]byte("pay 10"))
	env.Payload = []byte("pay 99")
	if err := a.Verify(env); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered payload = %v, want ErrBadSignature", err)
	}
}

func TestTamperedSeqRejected(t *testing.T) {
	a := NewAuthority()
	s, _ := a.Register("n")
	env := s.Sign([]byte("x"))
	env.Seq++
	if err := a.Verify(env); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered seq = %v, want ErrBadSignature", err)
	}
}

func TestSignerIdentityBinding(t *testing.T) {
	a := NewAuthority()
	s1, _ := a.Register("alice")
	if _, err := a.Register("bob"); err != nil {
		t.Fatal(err)
	}
	env := s1.Sign([]byte("msg"))
	env.Signer = "bob" // bob's key does not validate alice's MAC
	if err := a.Verify(env); !errors.Is(err, ErrBadSignature) {
		t.Errorf("reattributed envelope = %v, want ErrBadSignature", err)
	}
}

func TestUnknownSigner(t *testing.T) {
	a := NewAuthority()
	b := NewAuthority()
	s, _ := b.Register("stranger")
	if err := a.Verify(s.Sign([]byte("x"))); !errors.Is(err, ErrUnknownSigner) {
		t.Errorf("unknown signer = %v, want ErrUnknownSigner", err)
	}
}

func TestReplayRejected(t *testing.T) {
	a := NewAuthority()
	s, _ := a.Register("n")
	env := s.Sign([]byte("once"))
	if err := a.Verify(env); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(env); !errors.Is(err, ErrReplay) {
		t.Errorf("replay = %v, want ErrReplay", err)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	a := NewAuthority()
	s, _ := a.Register("n")
	env := s.Sign([]byte("x"))
	if err := a.Peek(env); err != nil {
		t.Fatal(err)
	}
	if err := a.Peek(env); err != nil {
		t.Fatal("second Peek should still pass")
	}
	if err := a.Verify(env); err != nil {
		t.Fatal("Verify after Peek should pass once")
	}
}

func TestOutOfOrderOldSeqRejected(t *testing.T) {
	a := NewAuthority()
	s, _ := a.Register("n")
	e1 := s.Sign([]byte("1"))
	e2 := s.Sign([]byte("2"))
	if err := a.Verify(e2); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(e1); !errors.Is(err, ErrReplay) {
		t.Errorf("old seq after newer = %v, want ErrReplay", err)
	}
}

func TestSignCopiesPayload(t *testing.T) {
	a := NewAuthority()
	s, _ := a.Register("n")
	buf := []byte("original")
	env := s.Sign(buf)
	buf[0] = 'X'
	if err := a.Verify(env); err != nil {
		t.Errorf("mutating caller buffer broke envelope: %v", err)
	}
}

func TestKeyRotationInvalidatesOldEnvelopes(t *testing.T) {
	a := NewAuthority()
	s, _ := a.Register("n")
	env := s.Sign([]byte("pre-rotation"))
	if _, err := a.Register("n"); err != nil { // rotate
		t.Fatal(err)
	}
	if err := a.Verify(env); !errors.Is(err, ErrBadSignature) {
		t.Errorf("post-rotation verify = %v, want ErrBadSignature", err)
	}
}

// Property: any single-bit flip anywhere in the payload is detected.
func TestPropertyBitFlipDetected(t *testing.T) {
	a := NewAuthority()
	s, _ := a.Register("n")
	prop := func(payload []byte, pos uint) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		env := s.Sign(payload)
		i := int(pos % uint(len(env.Payload)))
		env.Payload[i] ^= 1
		return errors.Is(a.Peek(env), ErrBadSignature)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Peek verifies the MAC only, without consuming the sequence number.
// Useful for idempotent re-checks in tests.
func (a *Authority) Peek(env Envelope) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	key, ok := a.keys[env.Signer]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSigner, env.Signer)
	}
	want := mac(key, env.Signer, env.Seq, env.Payload)
	if !hmac.Equal(want[:], env.MAC[:]) {
		return ErrBadSignature
	}
	return nil
}
