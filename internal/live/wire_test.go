package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/codec"
	"repro/internal/fpss"
	"repro/internal/scenario"
)

// serveLoopback serves d on a loopback listener for the rest of the
// test and returns the listener's address.
func serveLoopback(t *testing.T, d Dispatcher) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- Serve(ln, d) }()
	t.Cleanup(func() {
		ln.Close()
		if err := <-served; err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String()
}

func dialLoopback(t *testing.T, addr string) *Client {
	t.Helper()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// frameOf is body behind its length prefix.
func frameOf(body []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// TestWireMatchesDispatch serves Figure 1 and a lossy PrefAttach n=16
// scenario over the wire. Every (src, dst) Route and Pay reply through
// Dial, the src == dst failures included, must be DeepEqual to
// Server.Dispatch's reply in process; so must a Stats reply after an
// inject and a failed reply whose Err holds non-ASCII text.
func TestWireMatchesDispatch(t *testing.T) {
	for _, sp := range []scenario.Spec{
		{Family: scenario.Figure1, Scheme: fpss.SchemeDeclaredCost},
		{Family: scenario.PrefAttach, N: 16, Seed: 1, Loss: scenario.Loss{Rate: 0.1}},
	} {
		t.Run(sp.Describe(), func(t *testing.T) {
			srv, err := NewServer(sp)
			if err != nil {
				t.Fatal(err)
			}
			cli := dialLoopback(t, serveLoopback(t, srv))
			same := func(req Request) Response {
				t.Helper()
				want := srv.Dispatch(req)
				got := cli.Dispatch(req)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v over the wire:\n got %+v\nwant %+v", req, got, want)
				}
				return got
			}
			n := srv.N()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					same(Request{Op: OpRoute, Src: src, Dst: dst})
					same(Request{Op: OpPay, Src: src, Dst: dst, Packets: 3})
				}
			}

			if resp := cli.Dispatch(Request{Op: OpInject, Node: 2, Deviation: "misreport-cost-inflate"}); !resp.OK {
				t.Fatalf("inject over the wire: %s", resp.Err)
			}
			s := same(Request{Op: OpStats}).Stats
			if s == nil || s.Deviant == "" || s.DeviantNode == 0 || s.Net.Sent == 0 || s.Net.Bytes == 0 || s.Net.Steps == 0 {
				t.Fatalf("stats after inject: %+v", s)
			}
			if sp.Loss.Enabled() && (s.Net.Dropped == 0 || s.Divergence >= 0) {
				t.Fatalf("lossy stats: %+v", s)
			}

			bad := same(Request{Op: "路由", Src: 1})
			if bad.OK || utf8.RuneCountInString(bad.Err) == len(bad.Err) {
				t.Fatalf("unknown op reply %+v: want a failure naming the op in non-ASCII text", bad)
			}
		})
	}
}

// fill sets every field that v reaches to a value of its own: ints
// alternate in sign and take several varint bytes, strings are
// non-ASCII, and slices hold two elements. A kind it does not know is
// a field the codec has not learned yet.
func fill(t *testing.T, v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		*next++
		x := *next * 1_000_003
		if *next%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		*next++
		v.SetString(fmt.Sprintf("é%d", *next))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), next)
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), next)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), next)
		}
	default:
		t.Fatalf("%s has a field of kind %s, which the wire does not carry", v.Type(), v.Kind())
	}
}

// TestWireCarriesEveryField fills every field of a Request and of a
// Response, Stats and its ten sim.Counters fields included, and
// decodes each encoding back to a DeepEqual value. Zero values and
// empty slices round-trip too, and stay apart from nil.
func TestWireCarriesEveryField(t *testing.T) {
	var next int64
	var req Request
	var full Response
	fill(t, reflect.ValueOf(&req).Elem(), &next)
	fill(t, reflect.ValueOf(&full).Elem(), &next)
	if full.Stats.Net.Steps == 0 {
		t.Fatal("fill missed sim.Counters")
	}

	for _, r := range []Request{req, {}} {
		if got, err := decodeRequest(appendRequest(nil, r)); err != nil || got != r {
			t.Fatalf("request %+v decodes to %+v, %v", r, got, err)
		}
	}
	for _, r := range []Response{full, {}, {Path: []int{}, Payments: []Payment{}, Stats: &Stats{}}} {
		if got, err := decodeResponse(appendResponse(nil, r)); err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("response %+v decodes to %+v, %v", r, got, err)
		}
	}
}

// TestWireDecodingIsStrict: every proper prefix of a body is
// truncated, and a trailing byte, a non-minimal or overflowing varint,
// a bool other than 0 or 1 and a count beyond the input are rejected,
// the count before it sizes a slice.
func TestWireDecodingIsStrict(t *testing.T) {
	body := appendResponse(nil, Response{OK: true, Path: []int{3, 1, 4}, Payments: []Payment{{To: 1, Amount: 5}}, Epoch: 2, Stats: &Stats{N: 6}})
	for i := range body {
		if _, err := decodeResponse(body[:i]); !errors.Is(err, codec.ErrTruncated) {
			t.Fatalf("prefix of %d bytes: %v, want %v", i, err, codec.ErrTruncated)
		}
	}
	overflow := bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64+1)
	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"trailing byte", append(body, 0), codec.ErrTrailing},
		{"non-minimal cost", []byte{1, 0, 0, 0x80, 0x00, 0, 0, 0, 0}, codec.ErrVarint},
		{"overflowing cost", append([]byte{1, 0, 0}, overflow...), codec.ErrVarint},
		{"bool 2", []byte{2, 0, 0, 0, 0, 0, 0, 0}, codec.ErrBool},
		{"path count beyond input", []byte{1, 0, 0xff, 0x7f}, codec.ErrTruncated},
		{"payment count beyond input", []byte{1, 0, 0, 0, 3, 1, 2, 3}, codec.ErrTruncated},
	} {
		resp, err := decodeResponse(tc.body)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if cap(resp.Path) > len(tc.body) || 2*cap(resp.Payments) > len(tc.body) {
			t.Errorf("%s: a count beyond the input sized a slice: %+v", tc.name, resp)
		}
	}
	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"op longer than input", []byte{5, 'r'}, codec.ErrTruncated},
		{"non-minimal src", []byte{0, 0x80, 0x00, 0, 0, 0, 0, 0}, codec.ErrVarint},
		{"advance 2", []byte{0, 0, 0, 0, 0, 0, 2}, codec.ErrBool},
		{"trailing byte", []byte{0, 0, 0, 0, 0, 0, 0, 0}, codec.ErrTrailing},
	} {
		if _, err := decodeRequest(tc.body); !errors.Is(err, tc.want) {
			t.Errorf("request %s: %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestFrameCapRejectsBeforeAllocating: a length prefix above the cap,
// or too long to be within it, fails within the longest prefix the
// cap allows, without sizing the frame buffer.
func TestFrameCapRejectsBeforeAllocating(t *testing.T) {
	for _, prefix := range [][]byte{
		binary.AppendUvarint(nil, maxFrame+1),
		binary.AppendUvarint(nil, 1<<40),
		{0x80, 0x80, 0x80, 0x01},
	} {
		raw := append(prefix, make([]byte, 16)...)
		var src bytes.Reader
		in := frameReader{r: bufio.NewReader(&src)}
		var err error
		allocs := testing.AllocsPerRun(10, func() {
			src.Reset(raw)
			in.r.Reset(&src)
			_, err = in.next()
		})
		if !errors.Is(err, errFrameSize) || allocs != 0 || in.buf != nil {
			t.Fatalf("prefix %x: err %v, %.0f allocs, buffer of %d", prefix, err, allocs, cap(in.buf))
		}
		if read := len(raw) - src.Len() - in.r.Buffered(); read > prefixRoom {
			t.Fatalf("prefix %x: read %d bytes", prefix, read)
		}
	}
}

// closedByPeer reads from conn until the peer closes it, failing the
// test if the peer sends anything or keeps it open for seconds.
func closedByPeer(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	if n != 0 || !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("read %d bytes, %v; want the peer to close the connection", n, err)
	}
}

// TestServeClosesHostileConnections sends malformed frames on raw
// connections. The server closes each one, the over-cap prefix without
// waiting for a body, while a client on another connection keeps
// being served.
func TestServeClosesHostileConnections(t *testing.T) {
	srv, err := NewServer(scenario.Spec{Family: scenario.Figure1})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveLoopback(t, srv)
	cli := dialLoopback(t, addr)
	route := Request{Op: OpRoute, Src: 0, Dst: 5}
	want := srv.Dispatch(route)
	body := appendRequest(nil, route)
	for _, tc := range []struct {
		name string
		raw  []byte
		eof  bool // half-close after raw
	}{
		{"over cap", binary.AppendUvarint(nil, maxFrame+1), false},
		{"far over cap", binary.AppendUvarint(nil, 1<<40), false},
		{"non-minimal prefix", append([]byte{0x80 | byte(len(body)), 0x00}, body...), false},
		{"truncated then EOF", frameOf(body)[:len(body)], true},
		{"trailing byte", frameOf(append(body[:len(body):len(body)], 0)), false},
		{"non-minimal src", frameOf([]byte{5, 'r', 'o', 'u', 't', 'e', 0x80, 0x00, 0, 0, 0, 0, 0}), false},
		{"advance 2", frameOf(append(body[:len(body)-1:len(body)-1], 2)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.raw); err != nil {
				t.Fatal(err)
			}
			if tc.eof {
				if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
			}
			closedByPeer(t, conn)
			if got := cli.Dispatch(route); !reflect.DeepEqual(got, want) {
				t.Fatalf("other connection after the hostile one: %+v, want %+v", got, want)
			}
		})
	}
}

// TestClientClosesOnMalformedReply answers a client's first request
// with a malformed reply and every later one with a good reply. The
// first call must fail, and the client must close its connection, so
// the second call fails too rather than read a reply out of step.
func TestClientClosesOnMalformedReply(t *testing.T) {
	good := appendResponse(nil, Response{OK: true, Path: []int{0, 1}})
	for _, tc := range []struct {
		name   string
		reply  []byte
		hangup bool // close after the malformed reply
	}{
		{"trailing byte", frameOf(append(good[:len(good):len(good)], 0)), false},
		{"truncated then EOF", frameOf(good)[:len(good)], true},
		{"over cap", binary.AppendUvarint(nil, maxFrame+1), false},
		{"non-minimal prefix", append([]byte{0x80 | byte(len(good)), 0x00}, good...), false},
		{"ok 2", frameOf(append([]byte{2}, good[1:]...)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				in := frameReader{r: bufio.NewReader(conn)}
				for i := 0; ; i++ {
					if _, err := in.next(); err != nil {
						return
					}
					reply := frameOf(good)
					if i == 0 {
						reply = tc.reply
					}
					if _, err := conn.Write(reply); err != nil || i == 0 && tc.hangup {
						return
					}
				}
			}()
			cli := dialLoopback(t, ln.Addr().String())
			req := Request{Op: OpRoute, Src: 0, Dst: 1}
			if resp := cli.Dispatch(req); resp.OK || !strings.HasPrefix(resp.Err, "live: client recv: ") {
				t.Fatalf("malformed reply: %+v, want a failed recv", resp)
			}
			if resp := cli.Dispatch(req); resp.OK {
				t.Fatalf("the call after a malformed reply read %+v", resp)
			}
		})
	}
}

// TestOversizedFramesFail: a request whose frame would exceed the cap
// fails before anything is sent, and a reply that would exceed it
// comes back as a failed reply. The connection stays in step.
func TestOversizedFramesFail(t *testing.T) {
	cli := dialLoopback(t, serveLoopback(t, dispatchFunc(func(req Request) Response {
		if req.Src == 1 {
			return Response{OK: true, Path: make([]int, maxFrame)}
		}
		return Response{OK: true, Epoch: req.Dst}
	})))
	capErr := errFrameSize.Error()
	if resp := cli.Dispatch(Request{Op: OpInject, Deviation: strings.Repeat("x", maxFrame)}); resp.OK || !strings.Contains(resp.Err, capErr) {
		t.Fatalf("oversized request: %+v", resp)
	}
	if resp := cli.Dispatch(Request{Op: OpRoute, Src: 1}); resp.OK || !strings.Contains(resp.Err, capErr) {
		t.Fatalf("oversized reply: %+v", resp)
	}
	if resp := cli.Dispatch(Request{Op: OpRoute, Dst: 7}); !resp.OK || resp.Epoch != 7 {
		t.Fatalf("the call after the oversized frames: %+v", resp)
	}
}

// FuzzWire reads frames off arbitrary bytes and decodes each body both
// as a request and as a response. Nothing may panic; a count may not
// size a slice beyond what the body holds; and an accepted body must
// re-encode, length prefix included, to the bytes it was read from.
func FuzzWire(f *testing.F) {
	f.Add(frameOf(appendRequest(nil, Request{Op: OpPay, Src: 3, Dst: 1, Packets: 2})))
	f.Add(frameOf(appendResponse(nil, Response{OK: true, Payments: []Payment{{To: 2, Amount: 7}}, Total: 7})))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		in := frameReader{r: bufio.NewReader(src)}
		for off := 0; ; {
			body, err := in.next()
			if err != nil {
				return
			}
			end := len(data) - src.Len() - in.r.Buffered()
			frame := data[off:end]
			off = end
			if req, err := decodeRequest(body); err == nil {
				if again, _ := endFrame(appendRequest(beginFrame(nil), req)); !bytes.Equal(again, frame) {
					t.Fatalf("accepted request frame is not canonical:\n in %x\nout %x", frame, again)
				}
			}
			resp, err := decodeResponse(body)
			if cap(resp.Path) > len(body) || 2*cap(resp.Payments) > len(body) {
				t.Fatalf("a %d-byte body sized a path of %d and payments of %d", len(body), cap(resp.Path), cap(resp.Payments))
			}
			if err == nil {
				if again, _ := endFrame(appendResponse(beginFrame(nil), resp)); !bytes.Equal(again, frame) {
					t.Fatalf("accepted response frame is not canonical:\n in %x\nout %x", frame, again)
				}
			}
		}
	})
}
