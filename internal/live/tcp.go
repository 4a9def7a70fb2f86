package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/codec"
)

// Serve and Dial speak length-prefixed binary frames over TCP. A frame
// is a uvarint body length, minimal and at most maxFrame, then a
// Request or Response body in the layout wire.go documents. A client
// sends one request frame and reads one reply frame; the server
// answers each connection's requests in order. Either side closes the
// connection on a malformed or oversized frame, since the stream can
// no longer be trusted to be in step.

// maxFrame caps a frame body. A Pay reply that pays thousands of nodes
// fits; a larger length prefix closes the connection before any of
// the body is read or a buffer is sized for it.
const maxFrame = 64 << 10

// prefixRoom is the longest length prefix of a frame within the cap:
// a uvarint below 1<<21 takes at most three bytes.
const prefixRoom = 3

var errFrameSize = fmt.Errorf("frame exceeds the %d-byte cap", maxFrame)

// frameReader reads frames off one connection into one reused buffer.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

// next returns the next frame's body, valid until the following call.
func (fr *frameReader) next() ([]byte, error) {
	var size uint64
	for i := 0; ; i++ {
		c, err := fr.r.ReadByte()
		switch {
		case err != nil:
			return nil, err
		case c == 0 && i > 0:
			return nil, codec.ErrVarint
		}
		size |= uint64(c&0x7f) << (7 * i)
		if size > maxFrame || c >= 0x80 && i == prefixRoom-1 {
			return nil, errFrameSize
		}
		if c < 0x80 {
			break
		}
	}
	if uint64(cap(fr.buf)) < size {
		fr.buf = make([]byte, size)
	}
	fr.buf = fr.buf[:size]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return nil, err
	}
	return fr.buf, nil
}

// beginFrame empties b and reserves room for the length prefix; the
// body is appended after it.
func beginFrame(b []byte) []byte {
	return append(b[:0], make([]byte, prefixRoom)...)
}

// endFrame writes the length prefix of the body appended to a
// beginFrame buffer and returns prefix and body as one slice of b, so
// the frame leaves in a single Write.
func endFrame(b []byte) ([]byte, error) {
	size := len(b) - prefixRoom
	if size > maxFrame {
		return nil, errFrameSize
	}
	var p [binary.MaxVarintLen32]byte
	k := binary.PutUvarint(p[:], uint64(size))
	start := prefixRoom - k
	copy(b[start:], p[:k])
	return b[start:], nil
}

// Serve accepts connections on ln and serves framed request/response
// pairs against d until the listener closes. Each connection gets its
// own goroutine; requests on one connection are served in order.
func Serve(ln net.Listener, d Dispatcher) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go serveConn(conn, d)
	}
}

func serveConn(conn net.Conn, d Dispatcher) {
	defer conn.Close()
	in := frameReader{r: bufio.NewReader(conn)}
	var out []byte
	for {
		body, err := in.next()
		if err != nil {
			return
		}
		req, err := decodeRequest(body)
		if err != nil {
			return
		}
		out = appendResponse(beginFrame(out), d.Dispatch(req))
		frame, err := endFrame(out)
		if err != nil {
			out = appendResponse(beginFrame(out), fail("live: reply %v", err))
			frame, _ = endFrame(out)
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
	}
}

// Client is a Dispatcher over one TCP connection. Dispatch is safe for
// concurrent use; requests serialize on the connection (one in flight
// at a time — the protocol has no request IDs, by design: the server
// answers in order).
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	in   frameReader
	out  []byte
}

// Dial connects to a Serve listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, in: frameReader{r: bufio.NewReader(conn)}}, nil
}

// Dispatch implements Dispatcher over the wire. Transport errors come
// back as failed Responses so load-generator accounting sees them like
// any other error. A failed send or a missing or malformed reply
// closes the connection: the stream may be out of step, so every later
// call fails at once rather than read another request's reply.
func (c *Client) Dispatch(req Request) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = appendRequest(beginFrame(c.out), req)
	frame, err := endFrame(c.out)
	if err != nil {
		return fail("live: client send: request %v", err) // nothing sent
	}
	if _, err := c.conn.Write(frame); err != nil {
		c.conn.Close()
		return fail("live: client send: %v", err)
	}
	body, err := c.in.next()
	if err == nil {
		var resp Response
		if resp, err = decodeResponse(body); err == nil {
			return resp
		}
	}
	c.conn.Close()
	return fail("live: client recv: %v", err)
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }
