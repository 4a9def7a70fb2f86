package rational

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
)

// published is the table ledger of one play: every table a deviation
// hook was handed or published, with its hashes at that moment. Hooks
// never get private copies, so a hook that writes to a table it did
// not build corrupts the sender's state, a neighbor's view or a
// checker's record; the ledger catches it at the call or at the end
// of the run.
type published struct {
	t     *testing.T
	label string
	recs  []publishedTable
}

type publishedTable struct {
	what    string
	routing fpss.RoutingTable
	pricing fpss.PricingTable
	rh, ph  fpss.Hash
}

func (p *published) record(what string, rt fpss.RoutingTable, pt fpss.PricingTable) {
	p.recs = append(p.recs, publishedTable{what: what, routing: rt, pricing: pt, rh: rt.HashRouting(), ph: pt.HashPricing()})
}

// handed runs a send, forward or receive hook on u, failing if the
// hook wrote to u's tables, and records both u and what the hook
// publishes.
func (p *published) handed(what string, u fpss.Update, hook func() (fpss.Update, bool)) (fpss.Update, bool) {
	p.record(what+" input", u.Routing, u.Pricing)
	in := p.recs[len(p.recs)-1]
	out, ok := hook()
	if u.Routing.HashRouting() != in.rh || u.Pricing.HashPricing() != in.ph {
		p.t.Errorf("%s: %s wrote to the tables it was handed", p.label, what)
	}
	if ok {
		p.record(what, out.Routing, out.Pricing)
	}
	return out, ok
}

// verify fails for every recorded table that changed since it was
// recorded.
func (p *published) verify() {
	for _, r := range p.recs {
		if r.routing.HashRouting() != r.rh || r.pricing.HashPricing() != r.ph {
			p.t.Errorf("%s: a table from %s changed after it was published", p.label, r.what)
		}
	}
}

// protocol wraps every table hook of st. The Post hooks are handed
// fresh tables they may edit, so only their results are recorded.
func (p *published) protocol(st *fpss.Strategy) *fpss.Strategy {
	if st == nil {
		return nil
	}
	w := *st
	if st.PostRouting != nil {
		w.PostRouting = func(rt fpss.RoutingTable) fpss.RoutingTable {
			out := st.PostRouting(rt)
			p.record("PostRouting", out, nil)
			return out
		}
	}
	if st.PostPricing != nil {
		w.PostPricing = func(pt fpss.PricingTable) fpss.PricingTable {
			out := st.PostPricing(pt)
			p.record("PostPricing", nil, out)
			return out
		}
	}
	if st.SendUpdate != nil {
		w.SendUpdate = func(to graph.NodeID, u fpss.Update) (fpss.Update, bool) {
			return p.handed("SendUpdate", u, func() (fpss.Update, bool) { return st.SendUpdate(to, u) })
		}
	}
	if st.RecvUpdate != nil {
		w.RecvUpdate = func(u fpss.Update) (fpss.Update, bool) {
			return p.handed("RecvUpdate", u, func() (fpss.Update, bool) { return st.RecvUpdate(u) })
		}
	}
	return &w
}

// checker wraps st's protocol hooks, its forward hook and the copies
// it spoofs.
func (p *published) checker(st *faithful.Strategy) *faithful.Strategy {
	if st == nil {
		return nil
	}
	w := *st
	w.Protocol = *p.protocol(&st.Protocol)
	if st.ForwardToChecker != nil {
		w.ForwardToChecker = func(to graph.NodeID, fc faithful.ForwardCopy) (faithful.ForwardCopy, bool) {
			var out faithful.ForwardCopy
			_, ok := p.handed("ForwardToChecker", fc.U, func() (fpss.Update, bool) {
				var ok bool
				out, ok = st.ForwardToChecker(to, fc)
				return out.U, ok
			})
			return out, ok
		}
	}
	if st.SpoofCopies != nil {
		w.SpoofCopies = func(self graph.NodeID) []faithful.ForwardCopy {
			fcs := st.SpoofCopies(self)
			for _, fc := range fcs {
				p.record("SpoofCopies", fc.U.Routing, fc.U.Pricing)
			}
			return fcs
		}
	}
	return &w
}

// hasTableHooks reports whether st touches a DATA2/DATA3* table.
func hasTableHooks(st *fpss.Strategy) bool {
	return st != nil && (st.PostRouting != nil || st.PostPricing != nil || st.SendUpdate != nil || st.RecvUpdate != nil)
}

// TestHooksNeverEditPublishedTables replays every deviation of the
// classic and loss catalogues with a table hook, at every node of
// Figure 1 and of three seeded n=6 graphs (one lossy), through plain
// and faithful runs. A send, forward or receive hook must leave the
// tables it is handed as they were, and no table any hook publishes
// may change before the run ends.
func TestHooksNeverEditPublishedTables(t *testing.T) {
	type setup struct {
		name   string
		g      *graph.Graph
		params Params
	}
	fig := graph.Figure1()
	setups := []setup{{"figure1", fig, DefaultParams(fig)}}
	rng := rand.New(rand.NewSource(28))
	for i := range 3 {
		g, err := graph.RandomBiconnected(6, rng.Intn(6), 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		sc := setup{fmt.Sprintf("random%d", i), g, DefaultParams(g)}
		if i == 2 {
			sc.name, sc.params = sc.name+"-lossy", lossParams(g, 7)
		}
		setups = append(setups, sc)
	}
	// Catalogue(true) is Catalogue(false) plus the checker-layer
	// entries, which the plain runs skip (TestCatalogueShape).
	devs := append(Catalogue(true), LossCatalogue(true)...)
	plays := 0
	for _, sc := range setups {
		plain, faith := Systems(sc.g, sc.params)
		for i := range sc.g.N() {
			node := graph.NodeID(i)
			ctx := Ctx{Graph: sc.g, Node: node}
			for _, d := range devs {
				var proto *fpss.Strategy
				if d.protocol != nil {
					proto = d.protocol(ctx)
				}
				var check *faithful.Strategy
				if d.checker != nil {
					check = d.checker(ctx)
				}
				checkerHooks := check != nil && (check.ForwardToChecker != nil || check.SpoofCopies != nil || hasTableHooks(&check.Protocol))
				if !hasTableHooks(proto) && !checkerHooks {
					continue
				}
				for _, variant := range []string{"plain", "faithful"} {
					if variant == "plain" && (d.checker != nil || !hasTableHooks(proto)) {
						continue
					}
					p := &published{t: t, label: fmt.Sprintf("%s %s: %s at %d", sc.name, variant, d.name, node)}
					w := *d
					if d.protocol != nil {
						w.protocol = func(ctx Ctx) *fpss.Strategy { return p.protocol(d.protocol(ctx)) }
					}
					if d.checker != nil {
						w.checker = func(ctx Ctx) *faithful.Strategy { return p.checker(d.checker(ctx)) }
					}
					// The tables are read before the run is released, as
					// Release's contract demands: released rows and
					// arena chunks are cleared and drawn by later runs.
					var res interface{ Release() }
					var err error
					if variant == "plain" {
						res, err = plain.replay(core.NodeID(node), &w)
					} else {
						res, err = faith.replay(core.NodeID(node), &w)
					}
					if err != nil {
						t.Fatalf("%s: %v", p.label, err)
					}
					if len(p.recs) == 0 {
						t.Errorf("%s: no hook ran", p.label)
					}
					p.verify()
					res.Release()
					plays++
				}
			}
		}
	}
	if plays == 0 {
		t.Fatal("no deviation with a table hook was played")
	}
}
