package churn

import (
	"fmt"
	"testing"

	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/rational"
	"repro/internal/scenario"
)

// publishedTables records every table a boundary deviation's hooks
// were handed or published, with its hashes at that moment (see the
// rational package's TestHooksNeverEditPublishedTables).
type publishedTables struct {
	t     *testing.T
	label string
	recs  []publishedTable
}

type publishedTable struct {
	rt     fpss.RoutingTable
	pt     fpss.PricingTable
	rh, ph fpss.Hash
}

func (p *publishedTables) record(rt fpss.RoutingTable, pt fpss.PricingTable) {
	p.recs = append(p.recs, publishedTable{rt, pt, rt.HashRouting(), pt.HashPricing()})
}

// wrap records what st's Post hooks publish, and what its send hook is
// handed and publishes, failing when the send hook writes to its input.
func (p *publishedTables) wrap(st *fpss.Strategy) *fpss.Strategy {
	w := *st
	if st.PostRouting != nil {
		w.PostRouting = func(rt fpss.RoutingTable) fpss.RoutingTable {
			out := st.PostRouting(rt)
			p.record(out, nil)
			return out
		}
	}
	if st.PostPricing != nil {
		w.PostPricing = func(pt fpss.PricingTable) fpss.PricingTable {
			out := st.PostPricing(pt)
			p.record(nil, out)
			return out
		}
	}
	if st.SendUpdate != nil {
		w.SendUpdate = func(to graph.NodeID, u fpss.Update) (fpss.Update, bool) {
			p.record(u.Routing, u.Pricing)
			in := p.recs[len(p.recs)-1]
			out, ok := st.SendUpdate(to, u)
			if u.Routing.HashRouting() != in.rh || u.Pricing.HashPricing() != in.ph {
				p.t.Errorf("%s: SendUpdate wrote to the tables it was handed", p.label)
			}
			if ok {
				p.record(out.Routing, out.Pricing)
			}
			return out, ok
		}
	}
	return &w
}

// TestBoundaryHooksNeverEditPublishedTables plays the boundary
// deviations that hook the construction phase, stale-catalogue-adverts
// and leave-masquerading-as-loss, in every epoch they are active,
// through plain and faithful runs of a reliable and a lossy timeline.
// No table they publish, or are handed, may change before the run ends.
func TestBoundaryHooksNeverEditPublishedTables(t *testing.T) {
	seen := map[string]bool{}
	for _, sp := range []scenario.Spec{dynamicSpec(), lossyDynamicSpec()} {
		tl := mustBuild(t, sp)
		sys := NewSystem(tl, Faithful)
		for _, id := range tl.Identities() {
			for _, d := range []*deviation{sys.staleCatalogue(id, tl.MemberEpochs(id)), sys.leaveMasqueradingAsLoss(id)} {
				if d == nil {
					continue
				}
				seen[d.name] = true
				for _, ep := range d.epochs {
					act, err := d.act(ep)
					if err != nil {
						t.Fatal(err)
					}
					e := tl.Epochs[ep]
					for _, variant := range []Variant{Plain, Faithful} {
						// A fresh strategy per run, as a play builds one.
						st, ok := act.dev.ProtocolStrategy(rational.Ctx{Graph: e.Compiled.Graph, Node: act.local})
						if !ok {
							t.Fatalf("%s has no protocol part", d.name)
						}
						p := &publishedTables{t: t, label: fmt.Sprintf("%s %s: %s of %d in epoch %d", sp.Describe(), variant, d.name, id, ep)}
						w := p.wrap(st)
						if variant == Plain {
							_, err = fpss.Run(fpss.Config{Graph: e.Compiled.Graph, Strategies: map[graph.NodeID]*fpss.Strategy{act.local: w}, Loss: e.Compiled.Params.Loss})
						} else {
							cfg := e.Compiled.FaithfulConfig()
							cfg.Strategies = map[graph.NodeID]*faithful.Strategy{act.local: {Protocol: *w}}
							_, err = faithful.Run(cfg)
						}
						if err != nil {
							t.Fatalf("%s: %v", p.label, err)
						}
						if len(p.recs) == 0 {
							t.Errorf("%s: no hook ran", p.label)
						}
						for _, r := range p.recs {
							if r.rt.HashRouting() != r.rh || r.pt.HashPricing() != r.ph {
								t.Errorf("%s: a published table changed before the run ended", p.label)
								break
							}
						}
					}
				}
			}
		}
	}
	for _, name := range []string{"stale-catalogue-adverts", "leave-masquerading-as-loss"} {
		if !seen[name] {
			t.Errorf("no identity has %s", name)
		}
	}
}
