// Package sign provides the small cryptographic substrate the paper's
// extended FPSS specification needs: authenticated, acknowledged
// envelopes between nodes and the bank ("All communication between the
// bank and a node is signed with acknowledgments to ensure
// communication compatibility of these messages", §4.2). In-process,
// Verify's nil error is the acknowledgment: the receiver has
// authenticated the envelope and recorded its sequence number.
//
// The paper deliberately minimizes cryptography; a shared-key
// HMAC-SHA256 MAC (RFC 2104) is sufficient for unforgeability inside a
// closed simulation and keeps the dependency surface at the standard
// library. Its tags are crypto/hmac's, byte for byte, but each is
// computed with two sha256.Sum256 calls over stack buffers instead of
// a crypto/hmac state built per call, so signing allocates only the
// envelope's copy of the payload and verifying allocates nothing, for
// any message that fits the 2 KiB buffer.
package sign

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

var (
	// ErrBadSignature is returned when an envelope fails verification.
	ErrBadSignature = errors.New("sign: bad signature")
	// ErrUnknownSigner is returned when no key is registered for a signer.
	ErrUnknownSigner = errors.New("sign: unknown signer")
	// ErrReplay is returned when an envelope's sequence number was
	// already accepted from that signer.
	ErrReplay = errors.New("sign: replayed sequence number")
)

// Envelope is an authenticated message: the payload plus the signer's
// identity, a per-signer sequence number (replay protection) and an
// HMAC-SHA256 tag over all of it.
type Envelope struct {
	Signer  string
	Seq     uint64
	Payload []byte
	MAC     [sha256.Size]byte
}

// Authority issues keys and verifies envelopes. One Authority plays
// the role of the trusted key infrastructure between nodes and the
// bank. It is safe for concurrent use.
type Authority struct {
	mu    sync.Mutex
	keys  map[string][]byte
	seqs  map[string]uint64 // highest accepted sequence per signer
	nonce func(b []byte) error
}

// NewAuthority returns an empty Authority.
func NewAuthority() *Authority {
	return &Authority{
		keys: make(map[string][]byte),
		seqs: make(map[string]uint64),
		nonce: func(b []byte) error {
			_, err := rand.Read(b)
			return err
		},
	}
}

// Register creates (or rotates) a signing key for id and returns a
// Signer bound to it.
func (a *Authority) Register(id string) (*Signer, error) {
	key := make([]byte, 32)
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.nonce(key); err != nil {
		return nil, fmt.Errorf("sign: generate key: %w", err)
	}
	a.keys[id] = key
	a.seqs[id] = 0
	return &Signer{id: id, key: key}, nil
}

// Verify checks the envelope's MAC and replay freshness. On success it
// records the sequence number and returns nil, which acknowledges the
// envelope.
func (a *Authority) Verify(env Envelope) error {
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
	if env.Seq <= a.seqs[env.Signer] {
		return fmt.Errorf("%w: %d (last %d)", ErrReplay, env.Seq, a.seqs[env.Signer])
	}
	a.seqs[env.Signer] = env.Seq
	return nil
}

// Signer signs payloads on behalf of one identity. It is safe for
// concurrent use.
type Signer struct {
	mu  sync.Mutex
	id  string
	key []byte
	seq uint64
}

// Sign wraps payload in a fresh authenticated envelope.
func (s *Signer) Sign(payload []byte) Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	p := make([]byte, len(payload))
	copy(p, payload)
	return Envelope{
		Signer:  s.id,
		Seq:     s.seq,
		Payload: p,
		MAC:     mac(s.key, s.id, s.seq, p),
	}
}

// macBufSize is the size of mac's stack buffer: the padded key and a
// message (signer, zero byte, sequence number and payload) of up to
// macBufSize-sha256.BlockSize bytes. A longer message is hashed from
// the heap.
const macBufSize = 2048

// mac returns the HMAC-SHA256 tag under key of the signer's name, a
// zero byte, seq as 8 big-endian bytes and payload.
func mac(key []byte, signer string, seq uint64, payload []byte) [sha256.Size]byte {
	var buf [macBufSize]byte
	b := append(buf[:sha256.BlockSize], signer...)
	b = append(b, 0)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = append(b, payload...)
	return hmacSum(key, b)
}

// hmacSum returns HMAC-SHA256 (RFC 2104) under key of
// b[sha256.BlockSize:], overwriting b's first sha256.BlockSize bytes
// with the inner padded key, so that the inner hash is one Sum256 over
// b and the outer one a Sum256 over the outer padded key and the inner
// digest.
func hmacSum(key, b []byte) [sha256.Size]byte {
	if len(key) > sha256.BlockSize {
		k := sha256.Sum256(key)
		key = k[:]
	}
	var outer [sha256.BlockSize + sha256.Size]byte
	copy(b[:sha256.BlockSize], key)
	clear(b[len(key):sha256.BlockSize])
	for i := range sha256.BlockSize {
		outer[i] = b[i] ^ 0x5c
		b[i] ^= 0x36
	}
	inner := sha256.Sum256(b)
	copy(outer[sha256.BlockSize:], inner[:])
	return sha256.Sum256(outer[:])
}
