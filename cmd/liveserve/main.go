// Command liveserve runs a scenario as a long-lived service: each
// epoch's converged FPSS tables resident behind the internal/live RPC
// boundary, optionally exposed on localhost TCP, and driven by the
// open-loop load generator. With -check, the plain deviation search
// runs once over the served timeline after the load. The run fails if
// any request errors.
//
//	liveserve -family random -n 16 -rate 5000 -duration 5s -churn 4 -check
//	liveserve -family figure1 -scheme declared -inject 2:misreport-cost-inflate
//	liveserve -listen 127.0.0.1:7177 -duration 60s
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/live"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("liveserve", flag.ContinueOnError)
	var (
		family   = fs.String("family", "figure1", "topology family (see internal/scenario)")
		n        = fs.Int("n", 0, "node count (family default when 0)")
		workload = fs.String("workload", "", "workload (all-pairs, hotspot, sparse, gossip)")
		costs    = fs.String("costs", "", "cost model (uniform, heavy-tailed, bimodal)")
		scheme   = fs.String("scheme", "", "pricing scheme: vcg (default) or declared")
		seed     = fs.Int64("seed", 1, "scenario seed")
		epochs   = fs.Int("churn", 0, "churn epochs (static when < 2); advances live after each load slice")
		lossRate = fs.Float64("loss", 0, "per-link drop rate (lossy-links axis)")
		rate     = fs.Float64("rate", 2000, "open-loop offered load, requests/second")
		duration = fs.Duration("duration", 2*time.Second, "load-generation duration")
		warmup   = fs.Duration("warmup", 200*time.Millisecond, "latency samples before this are discarded")
		workers  = fs.Int("workers", 4, "load-generator completion workers")
		check    = fs.Bool("check", false, "after the load, run the plain per-epoch deviation search over the served timeline")
		inject   = fs.String("inject", "", "deviant to install before serving, as <node>:<deviation>")
		listen   = fs.String("listen", "", "also serve the RPC boundary on this TCP address")
	)
	err := fs.Parse(args)
	if err != nil {
		return err
	}

	// Parse only a non-empty name, as faithcheck does: ParseWorkload
	// reads "" as all-pairs, which would change the served label.
	sp := scenario.Spec{N: *n, Seed: *seed}
	if *family != "" {
		if sp.Family, err = scenario.ParseFamily(*family); err != nil {
			return err
		}
	}
	if *workload != "" {
		if sp.Workload, err = scenario.ParseWorkload(*workload); err != nil {
			return err
		}
	}
	if *costs != "" {
		if sp.CostModel, err = scenario.ParseCostModel(*costs); err != nil {
			return err
		}
	}
	switch *scheme {
	case "", "vcg":
	case "declared":
		sp.Scheme = fpss.SchemeDeclaredCost
	default:
		return fmt.Errorf("liveserve: unknown scheme %q", *scheme)
	}
	if *epochs > 1 {
		sp.Churn = scenario.Churn{Epochs: *epochs, Joins: 2, Leaves: 1}
	}
	sp.Loss = scenario.Loss{Rate: *lossRate}

	srv, err := live.NewServer(sp)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving %s: n=%d epochs=%d\n", sp.Describe(), srv.N(), srv.Epochs())

	if *inject != "" {
		var node int
		var dev string
		if _, err := fmt.Sscanf(*inject, "%d:%s", &node, &dev); err != nil {
			return fmt.Errorf("liveserve: -inject wants <node>:<deviation>, got %q", *inject)
		}
		if resp := srv.Dispatch(live.Request{Op: live.OpInject, Node: node, Deviation: dev}); !resp.OK {
			return fmt.Errorf("liveserve: %s", resp.Err)
		}
		fmt.Fprintf(out, "injected deviant: node %d running %q\n", node, dev)
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		go live.Serve(ln, srv)
		fmt.Fprintf(out, "rpc listening on %s\n", ln.Addr())
	}

	// One load slice per epoch: the open-loop schedule runs against
	// the resident epoch, then the server advances the churn boundary
	// live and the next slice hits the evolved epoch.
	slices := srv.Epochs()
	perSlice := *duration / time.Duration(slices)
	var errs int64
	for e := 0; ; e++ {
		cfg := live.LoadgenConfig{
			Rate:     *rate,
			Requests: int(*rate * perSlice.Seconds()),
			Warmup:   *warmup,
			Workers:  *workers,
			Seed:     uint64(*seed) + uint64(e),
		}
		res, err := live.RunLoadgen(srv, srv.N(), cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "epoch %d: %s\n", e, res)
		errs += res.Errors
		if e == slices-1 {
			break
		}
		if resp := srv.Dispatch(live.Request{Op: live.OpInject, Advance: true}); !resp.OK {
			return fmt.Errorf("liveserve: advance: %s", resp.Err)
		}
	}

	stats := srv.Dispatch(live.Request{Op: live.OpStats})
	if !stats.OK {
		return fmt.Errorf("liveserve: stats: %s", stats.Err)
	}
	st := stats.Stats
	fmt.Fprintf(out, "network: sent=%d delivered=%d dropped=%d lost=%d divergence=%d\n",
		st.Net.Sent, st.Net.Delivered, st.Net.Dropped, st.Net.Lost, st.Divergence)
	if errs > 0 {
		return fmt.Errorf("liveserve: %d requests failed", errs)
	}

	if *check {
		// Every served epoch is a pure function of the spec, so the
		// per-epoch search over the spec's timeline checks exactly the
		// epochs the server served. It runs after the load so that its
		// plays never compete with requests for CPU.
		tl, err := churn.Build(sp)
		if err != nil {
			return err
		}
		rep, err := core.CheckFaithfulnessCfg(churn.NewSystem(tl, churn.Plain), core.CheckConfig{Workers: -1, PerEpoch: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "check: plain FPSS, %d of %d plays, %d violations\n", rep.Checked, rep.Total(), len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(out, "  violation: %s\n", v)
		}
	}
	return nil
}
