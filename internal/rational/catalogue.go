// Package rational implements the paper's rational-manipulation
// failure model (§3.6): a catalogue of named deviations from the
// suggested FPSS specification — cost misreports, dropped / changed /
// spoofed routing and pricing updates, table miscomputation, and
// execution-phase payment fraud (§4.3 manipulations 1–4 plus joint
// combinations) — together with core.System adapters that play each
// deviation against the plain FPSS protocol and against the faithful
// extension. core.CheckFaithfulness over these systems is the
// deviation search of experiment E6: plain FPSS admits profitable
// deviations; the extended specification admits none.
package rational

import (
	"slices"

	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/settle"
	"repro/internal/spec"
)

// Ctx identifies the deviating node within a concrete scenario.
type Ctx struct {
	Graph *graph.Graph
	Node  graph.NodeID
}

// Deviation is one catalogued alternative strategy, with realizations
// for both protocol variants. Fields are nil when a part does not
// apply.
type Deviation struct {
	name    string
	classes []spec.ActionKind
	// protocol builds the construction-phase deviation (shared by
	// plain FPSS and the faithful protocol's Protocol field).
	protocol func(Ctx) *fpss.Strategy
	// reportPayment is the execution-phase deviation.
	reportPayment func(truth fpss.PaymentList) fpss.PaymentList
	// checker builds deviations in the faithful protocol's checker
	// layer (forward drops/tampering, spoofed copies, report lies);
	// nil for deviations that exist in plain FPSS too.
	checker func(Ctx) *faithful.Strategy
	// settle builds the settlement-window deviation played inside the
	// sharded bank's 2PC (meaningful only when Params.Settle enables
	// the shard axis).
	settle func(Ctx) *settle.Strategy
	// boundedExec marks catalogue-built execution-only deviations
	// whose report hook never emits negative amounts, which is what
	// makes the static plain-protocol profit bound (baseline + honest
	// obligations) sound. Custom NewDeviation entries never set it —
	// an arbitrary hook voids the bound.
	boundedExec bool
}

// ExecOnly reports whether the deviation touches only the execution
// phase (a DATA4 misreport), leaving both construction phases and the
// checker layer untouched. Such deviations replay against a truthful
// snapshot without re-running the protocol.
func (d *Deviation) ExecOnly() bool {
	return d.protocol == nil && d.checker == nil && d.settle == nil && d.reportPayment != nil
}

// SettleOnly reports whether the deviation lives entirely inside the
// settlement window: the protocol, checker layer and DATA4 report all
// stay honest, so the play replays as honest-baseline-plus-settlement
// without re-running the protocol.
func (d *Deviation) SettleOnly() bool {
	return d.protocol == nil && d.checker == nil && d.reportPayment == nil && d.settle != nil
}

// Parts are the realizations of a custom deviation, mirroring two of
// the unexported fields of Deviation: the construction-phase strategy
// and the execution-phase payment misreport. Either or both may be
// set.
type Parts struct {
	// Protocol builds the construction-phase deviation.
	Protocol func(Ctx) *fpss.Strategy
	// ReportPayment misreports DATA4 in the execution phase.
	ReportPayment func(truth fpss.PaymentList) fpss.PaymentList
}

// NewDeviation assembles a custom catalogued deviation from its parts.
// The churn engine composes its epoch-boundary deviations (stale
// catalogues, leave-without-settling, identity whitewashing) out of
// these instead of re-implementing the System adapters.
func NewDeviation(name string, classes []spec.ActionKind, p Parts) *Deviation {
	return &Deviation{
		name:          name,
		classes:       classes,
		protocol:      p.Protocol,
		reportPayment: p.ReportPayment,
	}
}

// Name implements core.Deviation.
func (d *Deviation) Name() string { return d.name }

// Classes implements core.Deviation. The returned slice is shared and
// read-only: the deviation-search hot loop calls Classes on every
// play, and core.CheckFaithfulness copies it only when recording a
// Violation.
func (d *Deviation) Classes() []spec.ActionKind { return d.classes }

// Catalogue returns the full deviation list. Deviations whose checker
// layer only exists in the faithful protocol are included only when
// forFaithful is true.
func Catalogue(forFaithful bool) []*Deviation {
	all := []*Deviation{
		{
			name:    "misreport-cost-inflate",
			classes: []spec.ActionKind{spec.InfoRevelation},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{DeclareCost: func(t graph.Cost) graph.Cost { return t + 4 }}
			},
		},
		{
			name:    "misreport-cost-zero",
			classes: []spec.ActionKind{spec.InfoRevelation},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{DeclareCost: func(graph.Cost) graph.Cost { return 0 }}
			},
		},
		{
			name:    "drop-cost-relays",
			classes: []spec.ActionKind{spec.MessagePassing},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{RelayCost: func(graph.NodeID, fpss.CostAnnounce) (fpss.CostAnnounce, bool) {
					return fpss.CostAnnounce{}, false
				}}
			},
		},
		{
			name:    "inflate-relayed-costs",
			classes: []spec.ActionKind{spec.MessagePassing},
			protocol: func(ctx Ctx) *fpss.Strategy {
				self := ctx.Node
				return &fpss.Strategy{RelayCost: func(_ graph.NodeID, a fpss.CostAnnounce) (fpss.CostAnnounce, bool) {
					if a.Origin != self {
						a.Cost += 25
					}
					return a, true
				}}
			},
		},
		{
			// Manipulation 2: advertise artificially cheap routes to
			// attract transit traffic at inflated VCG premiums.
			name:    "miscompute-routing-attract",
			classes: []spec.ActionKind{spec.Computation},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{PostRouting: func(rt fpss.RoutingTable) fpss.RoutingTable {
					for d, e := range rt.All() {
						e.Cost = 0
						rt[d] = e
					}
					return rt
				}}
			},
		},
		{
			// Manipulation 2 (repel): advertise inflated routes to shed
			// unprofitable transit load.
			name:    "miscompute-routing-repel",
			classes: []spec.ActionKind{spec.Computation},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{PostRouting: func(rt fpss.RoutingTable) fpss.RoutingTable {
					for d, e := range rt.All() {
						e.Cost += 40
						rt[d] = e
					}
					return rt
				}}
			},
		},
		{
			// Manipulation 4: corrupt advertised pricing data.
			name:    "miscompute-pricing-inflate",
			classes: []spec.ActionKind{spec.Computation},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{PostPricing: func(pt fpss.PricingTable) fpss.PricingTable {
					for _, row := range pt {
						for k, e := range row {
							e.Price += 30
							row[k] = e
						}
					}
					return pt
				}}
			},
		},
		{
			// Manipulation 3 (change): tamper outgoing advertisements
			// without touching internal state.
			name:    "tamper-adverts",
			classes: []spec.ActionKind{spec.MessagePassing, spec.Computation},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{SendUpdate: func(_ graph.NodeID, u fpss.Update) (fpss.Update, bool) {
					u.Routing = slices.Clone(u.Routing) // copy on write: u is published
					for d, e := range u.Routing.All() {
						e.Cost = 0
						u.Routing[d] = e
					}
					return u, true
				}}
			},
		},
		{
			// Manipulation 1 (drop): stop advertising entirely.
			name:    "drop-adverts",
			classes: []spec.ActionKind{spec.MessagePassing},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{SendUpdate: func(graph.NodeID, fpss.Update) (fpss.Update, bool) {
					return fpss.Update{}, false
				}}
			},
		},
		{
			// Spoof in the plain protocol: impersonate another node in
			// advertisements to poison a neighbor's view of it.
			name:    "impersonate-neighbor",
			classes: []spec.ActionKind{spec.MessagePassing, spec.Computation},
			protocol: func(ctx Ctx) *fpss.Strategy {
				neighbors := ctx.Graph.Neighbors(ctx.Node)
				if len(neighbors) == 0 {
					return nil
				}
				victim := neighbors[0]
				return &fpss.Strategy{SendUpdate: func(_ graph.NodeID, u fpss.Update) (fpss.Update, bool) {
					u.From = victim
					u.Routing = slices.Clone(u.Routing) // copy on write: u is published
					for d, e := range u.Routing.All() {
						e.Cost += 60
						u.Routing[d] = e
					}
					return u, true
				}}
			},
		},
		{
			// Tag-only corruption: prices stay right but the identity
			// tags lie — exactly the inconsistency [BANK2] compares.
			name:    "tamper-pricing-tags",
			classes: []spec.ActionKind{spec.Computation},
			protocol: func(ctx Ctx) *fpss.Strategy {
				self := ctx.Node
				return &fpss.Strategy{PostPricing: func(pt fpss.PricingTable) fpss.PricingTable {
					for _, row := range pt {
						for k, e := range row {
							e.Tags = []graph.NodeID{self}
							row[k] = e
						}
					}
					return pt
				}}
			},
		},
		{
			// Manipulation 1 (selective): advertise honestly to some
			// neighbors but silently starve one of updates.
			name:    "selective-drop-adverts",
			classes: []spec.ActionKind{spec.MessagePassing},
			protocol: func(ctx Ctx) *fpss.Strategy {
				neighbors := ctx.Graph.Neighbors(ctx.Node)
				if len(neighbors) == 0 {
					return nil
				}
				victim := neighbors[len(neighbors)-1]
				return &fpss.Strategy{SendUpdate: func(to graph.NodeID, u fpss.Update) (fpss.Update, bool) {
					if to == victim {
						return fpss.Update{}, false
					}
					return u, true
				}}
			},
		},
		{
			// Manipulation 3 (change): deflate advertised avoid-k
			// prices, corrupting downstream B-value recovery.
			name:    "deflate-advertised-prices",
			classes: []spec.ActionKind{spec.MessagePassing, spec.Computation},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{SendUpdate: func(_ graph.NodeID, u fpss.Update) (fpss.Update, bool) {
					// Copy on write: u is published, so every row edited
					// is a new map in a new table.
					u.Pricing = slices.Clone(u.Pricing)
					for d, row := range u.Pricing.All() {
						halved := make(map[graph.NodeID]fpss.PriceEntry, len(row))
						for k, e := range row {
							e.Price /= 2
							halved[k] = e
						}
						u.Pricing[d] = halved
					}
					return u, true
				}}
			},
		},
		{
			name:          "underreport-payments-all",
			classes:       []spec.ActionKind{spec.Computation},
			boundedExec:   true,
			reportPayment: func(fpss.PaymentList) fpss.PaymentList { return fpss.PaymentList{} },
		},
		{
			name:        "underreport-payments-half",
			classes:     []spec.ActionKind{spec.Computation},
			boundedExec: true,
			reportPayment: func(t fpss.PaymentList) fpss.PaymentList {
				out := make(fpss.PaymentList, len(t))
				for k, v := range t {
					out[k] = v / 2
				}
				return out
			},
		},
		{
			// Joint deviation (strong-AC/strong-CC territory): lie about
			// the cost AND miscompute routing AND underreport payments.
			name:    "joint-lie-miscompute-underreport",
			classes: []spec.ActionKind{spec.InfoRevelation, spec.Computation, spec.MessagePassing},
			protocol: func(Ctx) *fpss.Strategy {
				return &fpss.Strategy{
					DeclareCost: func(t graph.Cost) graph.Cost { return t + 3 },
					PostRouting: func(rt fpss.RoutingTable) fpss.RoutingTable {
						for d, e := range rt.All() {
							e.Cost = 0
							rt[d] = e
						}
						return rt
					},
				}
			},
			reportPayment: func(fpss.PaymentList) fpss.PaymentList { return fpss.PaymentList{} },
		},
	}

	if !forFaithful {
		return all
	}
	all = append(all,
		&Deviation{
			name:    "drop-checker-forwards",
			classes: []spec.ActionKind{spec.MessagePassing},
			checker: func(Ctx) *faithful.Strategy {
				return &faithful.Strategy{ForwardToChecker: func(graph.NodeID, faithful.ForwardCopy) (faithful.ForwardCopy, bool) {
					return faithful.ForwardCopy{}, false
				}}
			},
		},
		&Deviation{
			name:    "tamper-checker-forwards",
			classes: []spec.ActionKind{spec.MessagePassing},
			checker: func(Ctx) *faithful.Strategy {
				return &faithful.Strategy{ForwardToChecker: func(_ graph.NodeID, fc faithful.ForwardCopy) (faithful.ForwardCopy, bool) {
					fc.U.Routing = slices.Clone(fc.U.Routing) // copy on write: fc.U is published
					for d, e := range fc.U.Routing.All() {
						e.Cost++
						fc.U.Routing[d] = e
					}
					return fc, true
				}}
			},
		},
		&Deviation{
			name:    "spoof-checker-copies",
			classes: []spec.ActionKind{spec.MessagePassing, spec.Computation},
			checker: func(ctx Ctx) *faithful.Strategy {
				neighbors := ctx.Graph.Neighbors(ctx.Node)
				if len(neighbors) == 0 {
					return nil
				}
				source := neighbors[0]
				return &faithful.Strategy{SpoofCopies: func(self graph.NodeID) []faithful.ForwardCopy {
					rt := make(fpss.RoutingTable, ctx.Graph.N())
					for i := 0; i < ctx.Graph.N(); i++ {
						d := graph.NodeID(i)
						if d == source || d == self {
							continue
						}
						rt[d] = fpss.RouteEntry{Cost: 0, Path: graph.Path{source, d}}
					}
					return []faithful.ForwardCopy{{
						Principal: self,
						From:      source,
						U:         fpss.Update{From: source, Routing: rt, Pricing: fpss.PricingTable{}},
					}}
				}}
			},
		},
		&Deviation{
			name:    "lie-state-report",
			classes: []spec.ActionKind{spec.Computation},
			checker: func(Ctx) *faithful.Strategy {
				return &faithful.Strategy{
					Protocol: fpss.Strategy{PostPricing: func(pt fpss.PricingTable) fpss.PricingTable {
						for _, row := range pt {
							for k, e := range row {
								e.Price += 11
								row[k] = e
							}
						}
						return pt
					}},
					ReportState: func(truth faithfulStateReport) faithfulStateReport {
						truth.Flags = nil
						truth.PricingHash = fpss.Hash{}
						return truth
					},
				}
			},
		},
	)
	return all
}

// LossCatalogue returns the loss-exploiting deviation family — §5's
// "hide behind the network" strategies, meaningful only when the
// scenario's Params.Loss axis is enabled (the System adapters append
// it then; a reliable scenario keeps the classic catalogue
// byte-identical). Each entry abuses the ambiguity between "node
// deviated" and "message lost": the faithful construction must still
// attribute them to the node, because handler-level drops never look
// like network losses to the attribution gate (sim counters only count
// drops the network itself performed).
func LossCatalogue(forFaithful bool) []*Deviation {
	all := []*Deviation{
		{
			// Selective dropping disguised as random loss: starve one
			// neighbor of every other advertisement, a pattern chosen to
			// be statistically indistinguishable from a ~50% lossy link.
			name:    "fake-loss-drop-adverts",
			classes: []spec.ActionKind{spec.MessagePassing},
			protocol: func(ctx Ctx) *fpss.Strategy {
				neighbors := ctx.Graph.Neighbors(ctx.Node)
				if len(neighbors) == 0 {
					return nil
				}
				victim := neighbors[len(neighbors)-1]
				drops := 0 // per-play: protocol() builds a fresh closure each play
				return &fpss.Strategy{SendUpdate: func(to graph.NodeID, u fpss.Update) (fpss.Update, bool) {
					if to != victim {
						return u, true
					}
					drops++
					return u, drops%2 == 0
				}}
			},
		},
		{
			// Ack withholding: the receiver discards a neighbor's
			// updates and lets the sender's retry envelope take the
			// blame — "the network must have lost it".
			name:    "withhold-acks",
			classes: []spec.ActionKind{spec.MessagePassing},
			protocol: func(ctx Ctx) *fpss.Strategy {
				neighbors := ctx.Graph.Neighbors(ctx.Node)
				if len(neighbors) == 0 {
					return nil
				}
				victim := neighbors[0]
				return &fpss.Strategy{RecvUpdate: func(u fpss.Update) (fpss.Update, bool) {
					if u.From == victim {
						return fpss.Update{}, false
					}
					return u, true
				}}
			},
		},
	}
	if !forFaithful {
		return all
	}
	return append(all,
		&Deviation{
			// Loss-rate misreporting: drop every checker forward and
			// scrub the resulting flags from the state report, blaming
			// the lossy network for the missing copies.
			name:    "misreport-loss-blame",
			classes: []spec.ActionKind{spec.MessagePassing, spec.Computation},
			checker: func(Ctx) *faithful.Strategy {
				return &faithful.Strategy{
					ForwardToChecker: func(graph.NodeID, faithful.ForwardCopy) (faithful.ForwardCopy, bool) {
						return faithful.ForwardCopy{}, false
					},
					ReportState: func(truth faithfulStateReport) faithfulStateReport {
						truth.Flags = nil
						return truth
					},
				}
			},
		},
	)
}

// ProtocolStrategy builds the deviation's construction-phase strategy
// for ctx. It reports false when the deviation has no protocol part —
// checker-, execution-, and settlement-only deviations have no
// realization as a principal's strategy, so a serving layer cannot
// inject them into a resident epoch.
func (d *Deviation) ProtocolStrategy(ctx Ctx) (*fpss.Strategy, bool) {
	if d.protocol == nil {
		return nil, false
	}
	return d.protocol(ctx), true
}

// FindDeviation looks up a catalogued deviation by name across the
// classic, loss, and shard families. The live server resolves Inject
// requests through this, so "which deviations exist" has exactly one
// answer shared by the batch checker and the serving path.
func FindDeviation(name string, forFaithful bool) (*Deviation, bool) {
	for _, list := range [][]*Deviation{
		Catalogue(forFaithful),
		LossCatalogue(forFaithful),
		ShardCatalogue(),
	} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return nil, false
}
