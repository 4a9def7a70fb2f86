package live

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/scenario"
)

// BenchmarkDispatch is the serving path's closed-loop service cost:
// one op sends every (src, dst) flow of one resident server through
// Server.Dispatch in process, so no load generator, timer, socket or
// codec sits inside the measurement. allocs/op is deterministic and
// gates in the BENCH_live.json trajectory; ns/req is one Dispatch.
func BenchmarkDispatch(b *testing.B) {
	const n = 16
	srv, err := NewServer(scenario.Spec{Family: scenario.Random, N: n, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		op   Op
	}{{"Route", OpRoute}, {"Pay", OpPay}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if src == dst {
							continue
						}
						if resp := srv.Dispatch(Request{Op: bc.op, Src: src, Dst: dst}); !resp.OK {
							b.Fatalf("%s %d→%d: %s", bc.op, src, dst, resp.Err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*(n-1)), "ns/req")
		})
	}
}

// BenchmarkWire is the frame codec's share of a served round trip, in
// memory with no socket: one op sends every (src, dst) flow of
// BenchmarkDispatch's server through what the two ends of a connection
// do per request. The client encodes the request frame and the server
// reads and decodes it; the server encodes the reply and the client
// reads and decodes it. The replies are Dispatch's, computed before
// the timer starts, so Dispatch stays outside the measurement.
// allocs/op gates like BenchmarkDispatch's; ns/req is one round trip's
// codec work.
func BenchmarkWire(b *testing.B) {
	const n = 16
	srv, err := NewServer(scenario.Spec{Family: scenario.Random, N: n, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		op   Op
	}{{"Route", OpRoute}, {"Pay", OpPay}} {
		b.Run(bc.name, func(b *testing.B) {
			var reqs []Request
			var resps []Response
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src != dst {
						req := Request{Op: bc.op, Src: src, Dst: dst}
						reqs = append(reqs, req)
						resps = append(resps, srv.Dispatch(req))
					}
				}
			}
			var conn bytes.Reader
			in := frameReader{r: bufio.NewReader(&conn)}
			var out []byte
			// roundTrip encodes one frame into out and reads it back.
			roundTrip := func() []byte {
				frame, err := endFrame(out)
				if err != nil {
					b.Fatal(err)
				}
				conn.Reset(frame)
				in.r.Reset(&conn)
				body, err := in.next()
				if err != nil {
					b.Fatal(err)
				}
				return body
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, req := range reqs {
					out = appendRequest(beginFrame(out), req)
					if got, err := decodeRequest(roundTrip()); err != nil || got != req {
						b.Fatalf("request %+v decodes to %+v, %v", req, got, err)
					}
					out = appendResponse(beginFrame(out), resps[k])
					if _, err := decodeResponse(roundTrip()); err != nil {
						b.Fatalf("reply to %+v: %v", req, err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
		})
	}
}
