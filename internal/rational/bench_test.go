package rational

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// BenchmarkCheckFaithfulness is the deviation-search trajectory
// benchmark: the E6 workload (full rational catalogue on the Figure 1
// scenario, every node) against both protocol variants, swept over
// worker-pool sizes. w=1 is the sequential oracle; the w=8 rows are
// the engine's headline wall-clock figure on 8-core hardware. Each
// iteration builds a fresh System, so the per-scenario sharing
// (catalogue, topology views, flow order) is measured, not hidden.
//
// CI parses the -benchmem output into BENCH_faithful.json and compares
// it against the committed BENCH_faithful.baseline.json.
func BenchmarkCheckFaithfulness(b *testing.B) {
	g := graph.Figure1()
	systems := []struct {
		name string
		mk   func() core.System
	}{
		{"plain", func() core.System { return &PlainSystem{Graph: g, Params: DefaultParams(g)} }},
		{"faithful", func() core.System { return &FaithfulSystem{Graph: g, Params: DefaultParams(g)} }},
	}
	for _, sc := range systems {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/w=%d", sc.name, w), func(b *testing.B) {
				b.ReportAllocs()
				checked := 0
				for i := 0; i < b.N; i++ {
					rep, err := core.CheckFaithfulnessCfg(sc.mk(), core.CheckConfig{Workers: w})
					if err != nil {
						b.Fatal(err)
					}
					checked = rep.Checked
				}
				b.ReportMetric(float64(checked), "plays")
			})
		}
	}
}

// BenchmarkFaithfulRunHonest times one honest extended-protocol run on
// Figure 1 — the full protocol replay (play with no deviation and no
// arena) that a snapshot saves and that every non-overlayable play
// repeats.
func BenchmarkFaithfulRunHonest(b *testing.B) {
	g := graph.Figure1()
	sys := &FaithfulSystem{Graph: g, Params: DefaultParams(g)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.play(-1, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
