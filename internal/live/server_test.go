package live

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// TestServerRouteAndPay serves the paper's Figure-1 scenario and
// checks Route answers against the central solution and, under both
// pricing schemes, every Pay answer against fpss.Execute's obligation
// for a one-packet flow over the central tables.
func TestServerRouteAndPay(t *testing.T) {
	for _, scheme := range []fpss.PricingScheme{fpss.SchemeVCG, fpss.SchemeDeclaredCost} {
		sp := scenario.Spec{Family: scenario.Figure1, Scheme: scheme}
		srv, err := NewServer(sp)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		comp, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := fpss.ComputeCentral(comp.Graph)
		if err != nil {
			t.Fatal(err)
		}

		n := comp.Graph.N()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				resp := srv.Dispatch(Request{Op: OpRoute, Src: src, Dst: dst})
				if !resp.OK {
					t.Fatalf("route %d->%d: %s", src, dst, resp.Err)
				}
				want := sol.Routing[graph.NodeID(src)][graph.NodeID(dst)]
				if int64(want.Cost) != resp.Cost || len(want.Path) != len(resp.Path) {
					t.Fatalf("route %d->%d: got cost %d path %v, central %+v", src, dst, resp.Cost, resp.Path, want)
				}
				for i, h := range want.Path {
					if int(h) != resp.Path[i] {
						t.Fatalf("route %d->%d hop %d: got %v, central %v", src, dst, i, resp.Path, want.Path)
					}
				}

				flow := [2]graph.NodeID{graph.NodeID(src), graph.NodeID(dst)}
				exec, err := fpss.Execute(sol.Routing, sol.Pricing, fpss.ExecConfig{
					TrueCosts:     sol.Costs,
					DeclaredCosts: sol.Costs,
					Traffic:       fpss.Traffic{flow: 1},
					Scheme:        scheme,
				})
				if err != nil {
					t.Fatal(err)
				}
				owed := exec.Obligations[flow[0]]
				pay := srv.Dispatch(Request{Op: OpPay, Src: src, Dst: dst})
				if !pay.OK {
					t.Fatalf("%v pay %d->%d: %s", scheme, src, dst, pay.Err)
				}
				got := make(fpss.PaymentList, len(pay.Payments))
				for _, p := range pay.Payments {
					got[graph.NodeID(p.To)] = p.Amount
				}
				if !maps.Equal(got, owed) || pay.Total != owed.Total() {
					t.Fatalf("%v pay %d->%d: got %v (total %d), Execute owes %v", scheme, src, dst, got, pay.Total, owed)
				}
			}
		}

		stats := srv.Dispatch(Request{Op: OpStats})
		if !stats.OK || stats.Stats == nil {
			t.Fatalf("stats: %+v", stats)
		}
		if stats.Stats.Divergence != 0 {
			t.Fatalf("honest reliable epoch diverges from central: %+v", stats.Stats)
		}
		if stats.Stats.Net.Sent == 0 {
			t.Fatalf("resident network reports no construction traffic: %+v", stats.Stats.Net)
		}
	}
}

// TestServerDifferentialSmokeSuite is the tentpole differential: for
// every smoke-suite spec, the quiesced live tables are byte-identical
// to the central solution AND to the event-simulator protocol run.
func TestServerDifferentialSmokeSuite(t *testing.T) {
	suite, ok := scenario.LookupSuite("smoke")
	if !ok {
		t.Fatal("smoke suite not registered")
	}
	for _, sp := range suite.Specs(1) {
		sp := sp
		t.Run(sp.Describe(), func(t *testing.T) {
			t.Parallel()
			srv, err := NewServer(sp)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			liveRouting, livePricing := srv.Tables()

			comp, err := sp.Compile()
			if err != nil {
				t.Fatal(err)
			}
			sol, err := fpss.ComputeCentral(comp.Graph)
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := fpss.Run(fpss.Config{Graph: comp.Graph})
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < comp.Graph.N(); i++ {
				id := graph.NodeID(i)
				if !liveRouting[id].Equal(sol.Routing[id]) {
					t.Fatalf("node %d: live routing != central", i)
				}
				if !livePricing[id].Equal(sol.Pricing[id]) {
					t.Fatalf("node %d: live pricing != central", i)
				}
				if !liveRouting[id].Equal(simRes.Nodes[id].Routing()) {
					t.Fatalf("node %d: live routing != simulator", i)
				}
				if !livePricing[id].Equal(simRes.Nodes[id].Pricing()) {
					t.Fatalf("node %d: live pricing != simulator", i)
				}
			}
		})
	}
}

// TestServerChurnAdvance walks a churn timeline live: every epoch
// re-converges in place (no restart) and matches the evolved central
// solution exactly.
func TestServerChurnAdvance(t *testing.T) {
	sp := scenario.Spec{
		Family:   scenario.Random,
		N:        8,
		Workload: scenario.WorkloadAllPairs,
		Seed:     3,
		Churn:    scenario.Churn{Epochs: 3, Joins: 2, Leaves: 1},
	}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Epochs() != 3 {
		t.Fatalf("want 3 epochs, got %d", srv.Epochs())
	}
	for e := 0; ; e++ {
		stats := srv.Dispatch(Request{Op: OpStats})
		if !stats.OK {
			t.Fatal(stats.Err)
		}
		if stats.Stats.Epoch != e {
			t.Fatalf("want epoch %d, got %d", e, stats.Stats.Epoch)
		}
		if stats.Stats.Divergence != 0 {
			t.Fatalf("epoch %d: %d nodes diverge from the evolved central solution", e, stats.Stats.Divergence)
		}
		if e == srv.Epochs()-1 {
			break
		}
		adv := srv.Dispatch(Request{Op: OpInject, Advance: true})
		if !adv.OK {
			t.Fatalf("advance from epoch %d: %s", e, adv.Err)
		}
	}
	// Advancing past the end must fail cleanly.
	if resp := srv.Dispatch(Request{Op: OpInject, Advance: true}); resp.OK {
		t.Fatal("advance past final epoch succeeded")
	}
}

// TestServerConcurrentAdvance races three Advances on a four-epoch
// timeline: each must step exactly one epoch, so together they return
// epochs 1, 2 and 3 and leave the server at epoch 3.
func TestServerConcurrentAdvance(t *testing.T) {
	sp := scenario.Spec{
		Family:   scenario.Random,
		N:        6,
		Workload: scenario.WorkloadAllPairs,
		Seed:     3,
		Churn:    scenario.Churn{Epochs: 4, Joins: 1, Leaves: 1},
	}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Epochs() != 4 {
		t.Fatalf("want 4 epochs, got %d", srv.Epochs())
	}
	const advances = 3
	got := make([]Response, advances)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = srv.Dispatch(Request{Op: OpInject, Advance: true})
		}()
	}
	wg.Wait()
	var epochs []int
	for _, resp := range got {
		if !resp.OK {
			t.Fatalf("advance failed: %s", resp.Err)
		}
		epochs = append(epochs, resp.Epoch)
	}
	slices.Sort(epochs)
	if !slices.Equal(epochs, []int{1, 2, 3}) {
		t.Errorf("advances returned epochs %v, want [1 2 3]", epochs)
	}
	if e := srv.Dispatch(Request{Op: OpStats}).Stats.Epoch; e != advances {
		t.Errorf("server at epoch %d after %d advances, want %d", e, advances, advances)
	}
}

// TestServerInjectDeviant installs a construction-phase deviation on a
// resident node: the epoch re-converges with the manipulated tables
// (divergence > 0 under the declared-cost scheme) and Reset restores
// the honest state.
func TestServerInjectDeviant(t *testing.T) {
	sp := scenario.Spec{Family: scenario.Figure1, Scheme: fpss.SchemeDeclaredCost}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp := srv.Dispatch(Request{Op: OpInject, Node: 2, Deviation: "misreport-cost-inflate"})
	if !resp.OK {
		t.Fatal(resp.Err)
	}
	stats := srv.Dispatch(Request{Op: OpStats}).Stats
	if stats.Deviant != "misreport-cost-inflate" || stats.DeviantNode != 2 {
		t.Fatalf("deviant not recorded: %+v", stats)
	}
	if stats.Divergence == 0 {
		t.Fatal("cost inflation left the converged tables identical to the honest central solution")
	}

	// A checker-only deviation has no live realization.
	if resp := srv.Dispatch(Request{Op: OpInject, Node: 2, Deviation: "misreport-loss-blame"}); resp.OK {
		t.Fatal("injected a deviation with no protocol part")
	}

	if resp := srv.Dispatch(Request{Op: OpInject, Reset: true}); !resp.OK {
		t.Fatal(resp.Err)
	}
	stats = srv.Dispatch(Request{Op: OpStats}).Stats
	if stats.Deviant != "" || stats.Divergence != 0 {
		t.Fatalf("reset did not restore the honest epoch: %+v", stats)
	}
}
