// Package sign provides the small cryptographic substrate the paper's
// extended FPSS specification needs: authenticated, acknowledged
// envelopes between nodes and the bank ("All communication between the
// bank and a node is signed with acknowledgments to ensure
// communication compatibility of these messages", §4.2).
//
// The paper deliberately minimizes cryptography; a shared-key
// HMAC-SHA256 MAC is sufficient for unforgeability inside a closed
// simulation and keeps the dependency surface at the standard library.
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
// identity, a per-signer sequence number (replay protection / acks) and
// an HMAC-SHA256 tag over all of it.
type Envelope struct {
	Signer  string
	Seq     uint64
	Payload []byte
	MAC     [sha256.Size]byte
}

// Ack acknowledges receipt of (Signer, Seq); it is itself signed by
// the receiver in practice, but in-process we only track delivery.
type Ack struct {
	Signer string
	Seq    uint64
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
// records the sequence number and returns an Ack.
func (a *Authority) Verify(env Envelope) (Ack, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key, ok := a.keys[env.Signer]
	if !ok {
		return Ack{}, fmt.Errorf("%w: %q", ErrUnknownSigner, env.Signer)
	}
	want := mac(key, env.Signer, env.Seq, env.Payload)
	if !hmac.Equal(want[:], env.MAC[:]) {
		return Ack{}, ErrBadSignature
	}
	if env.Seq <= a.seqs[env.Signer] {
		return Ack{}, fmt.Errorf("%w: %d (last %d)", ErrReplay, env.Seq, a.seqs[env.Signer])
	}
	a.seqs[env.Signer] = env.Seq
	return Ack{Signer: env.Signer, Seq: env.Seq}, nil
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

func mac(key []byte, signer string, seq uint64, payload []byte) [sha256.Size]byte {
	h := hmac.New(sha256.New, key)
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], seq)
	h.Write([]byte(signer))
	h.Write([]byte{0})
	h.Write(seqb[:])
	h.Write(payload)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}
