package live

import (
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
	defer srv.Close()
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
