package churn

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/rational"
	"repro/internal/spec"
)

// Variant selects which protocol the timeline plays.
type Variant int

const (
	// Plain plays the original FPSS protocol (no checkers, no bank).
	Plain Variant = iota
	// Faithful plays the paper's extended specification.
	Faithful
)

func (v Variant) String() string {
	if v == Plain {
		return "plain"
	}
	return "faithful"
}

// epochAction is what a deviation does in one epoch: which epoch-local
// node deviates, and with which catalogued strategy. aliased marks
// whitewashing epochs, where the deviator plays through a fresh
// identity's slot: the alias's utility delta is credited to the
// deviator and the alias is restored to its honest utility, so the
// gain measures the deviation itself, not the mere fact of playing an
// extra seat.
type epochAction struct {
	local   graph.NodeID
	dev     *rational.Deviation
	aliased bool
}

// deviation is one catalogued multi-epoch deviation for one identity.
type deviation struct {
	name    string
	classes []spec.ActionKind
	// epochs is the ascending activity set (see core.EpochedSystem.EpochsOf).
	epochs []int
	// act materializes the epoch's action; nil when inactive in e.
	act func(e int) (*epochAction, error)
	// execOnly marks deviations whose every epoch action leaves the
	// construction phases honest (payment misreports only) — the class
	// ProfitUpperBound can bound under the extended specification.
	execOnly bool
}

var _ core.Deviation = (*deviation)(nil)

// Name implements core.Deviation.
func (d *deviation) Name() string { return d.name }

// Classes implements core.Deviation. Shared, read-only.
func (d *deviation) Classes() []spec.ActionKind { return d.classes }

func (d *deviation) activeIn(e int) bool {
	for _, a := range d.epochs {
		if a == e {
			return true
		}
	}
	return false
}

// System plays a Timeline as one core.System: the node set is the
// identity set, a run is the whole timeline (one construction +
// execution round per epoch), and utilities are summed per identity
// across epochs with the bank's ledger carrying balances over the
// boundaries. It implements core.EpochedSystem, so a check with
// CheckConfig.PerEpoch replays the (identity, deviation) grid per
// epoch through the same worker pool the static search uses. Play and
// PlayEpoch are safe for concurrent calls once built (the per-epoch
// caches are lazily initialized under sync.Once and read-only
// afterwards).
type System struct {
	tl      *Timeline
	variant Variant

	once    sync.Once
	initErr error
	epochs  []core.System        // per-epoch rational system
	states  []core.TruthfulState // per-epoch truthful snapshot
	honest  []core.Outcome       // per-epoch honest outcome, epoch-local keys
	cats    map[Identity][]*deviation
	ledger  *bank.Ledger

	snapOnce sync.Once
	snap     *timelineState
	snapErr  error

	// Build-stat recording (EnableBuildStats before first use): one
	// entry per epoch describing how the boundary was rebuilt and what
	// it cost.
	statsOn bool
	stats   []BuildStat
}

// BuildStat records one epoch's boundary-rebuild cost during init:
// wall time and heap allocations of producing the epoch's truthful
// snapshot, plus which path produced it.
type BuildStat struct {
	Epoch int
	// Rebuild is the wall time of the epoch's snapshot build (central
	// evolve/compute or protocol sims, plus the execution tail).
	Rebuild time.Duration
	// Allocs is the heap allocation count (runtime.MemStats.Mallocs
	// delta) over the same window.
	Allocs uint64
	// Mode names the path: "delta" (central state repaired from the
	// previous epoch), "central" (central state computed from scratch —
	// epoch 0 of the incremental path), or "sim" (full protocol
	// simulations — the oracle path, or an enabled loss model).
	Mode string
}

// EnableBuildStats turns on per-epoch boundary timing/allocation
// recording. Must be called before the system is first used (init runs
// lazily on first query).
func (s *System) EnableBuildStats() { s.statsOn = true }

// BuildStats forces initialization and returns the per-epoch boundary
// rebuild record. Empty unless EnableBuildStats was called first.
func (s *System) BuildStats() ([]BuildStat, error) {
	if err := s.init(); err != nil {
		return nil, err
	}
	return s.stats, nil
}

var _ core.EpochedSystem = (*System)(nil)
var _ core.Bounder = (*System)(nil)

// NewSystem wraps a timeline for one protocol variant.
func NewSystem(tl *Timeline, v Variant) *System {
	return &System{tl: tl, variant: v}
}

// Timeline returns the wrapped timeline.
func (s *System) Timeline() *Timeline { return s.tl }

// NumEpochs implements core.EpochedSystem.
func (s *System) NumEpochs() int { return len(s.tl.Epochs) }

func (s *System) init() error {
	s.once.Do(func() {
		s.epochs = make([]core.System, len(s.tl.Epochs))
		s.states = make([]core.TruthfulState, len(s.tl.Epochs))
		s.honest = make([]core.Outcome, len(s.tl.Epochs))
		for i, e := range s.tl.Epochs {
			var m0 runtime.MemStats
			var start time.Time
			if s.statsOn {
				runtime.ReadMemStats(&m0)
				start = time.Now()
			}
			mode := "sim"
			plain, faith := e.Compiled.Systems()
			if e.useCentral() {
				// Incremental path: one immutable central solution per
				// epoch — repaired from the previous epoch's through the
				// boundary delta — seeds both variants' snapshots, so the
				// boundary cost is the repair plus the execution tail, not
				// three protocol simulations.
				c, err := e.centralState()
				if err != nil {
					s.initErr = fmt.Errorf("churn: epoch %d central: %w", i, err)
					return
				}
				plain.SeedHonest(c.Sol)
				faith.SeedHonest(c.Sol)
				if e.prev != nil && e.delta != nil {
					mode = "delta"
				} else {
					mode = "central"
				}
			}
			if s.variant == Plain {
				s.epochs[i] = plain
			} else {
				s.epochs[i] = faith
			}
			// One truthful snapshot per epoch: its baseline doubles as
			// the honest outcome, and every deviant epoch play overlays
			// it through the caller's play context.
			st, err := s.epochs[i].Snapshot()
			if err != nil {
				s.initErr = fmt.Errorf("churn: epoch %d baseline: %w", i, err)
				return
			}
			s.states[i] = st
			s.honest[i] = st.Baseline()
			if s.statsOn {
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				s.stats = append(s.stats, BuildStat{
					Epoch:   i,
					Rebuild: time.Since(start),
					Allocs:  m1.Mallocs - m0.Mallocs,
					Mode:    mode,
				})
			}
		}
		if err := s.buildLedger(); err != nil {
			s.initErr = err
			return
		}
		s.buildCatalogues()
	})
	return s.initErr
}

// buildLedger replays the honest timeline through the bank's
// carry-forward book: every member's epoch utility is credited after
// the epoch, departing identities are settled at the boundary, and
// joiners open fresh accounts at zero.
func (s *System) buildLedger() error {
	l := bank.NewLedger()
	for _, e := range s.tl.Epochs {
		for _, id := range e.Left {
			if _, err := l.Settle(bank.Account(id)); err != nil {
				return fmt.Errorf("churn: ledger: %w", err)
			}
		}
		for i, id := range e.Members {
			if err := l.Open(bank.Account(id)); err != nil {
				return fmt.Errorf("churn: ledger: %w", err)
			}
			if err := l.Credit(bank.Account(id), s.honest[e.Index].Utilities[core.NodeID(i)]); err != nil {
				return fmt.Errorf("churn: ledger: %w", err)
			}
		}
	}
	s.ledger = l
	return nil
}

// Ledger exposes the honest timeline's carry-forward book (final and
// settled balances per identity). Read-only.
func (s *System) Ledger() (*bank.Ledger, error) {
	if err := s.init(); err != nil {
		return nil, err
	}
	return s.ledger, nil
}

// Nodes implements core.System: one NodeID per identity that ever
// participates.
func (s *System) Nodes() []core.NodeID {
	ids := s.tl.Identities()
	out := make([]core.NodeID, len(ids))
	for i, id := range ids {
		out[i] = core.NodeID(id)
	}
	return out
}

// Deviations implements core.System: the full static catalogue (each
// deviation active in every epoch the identity is a member of) plus
// the epoch-boundary deviations that only exist under churn.
func (s *System) Deviations(n core.NodeID) []core.Deviation {
	if err := s.init(); err != nil {
		return nil
	}
	cat := s.cats[Identity(n)]
	out := make([]core.Deviation, len(cat))
	for i, d := range cat {
		out[i] = d
	}
	return out
}

// EpochsOf implements core.EpochedSystem.
func (s *System) EpochsOf(n core.NodeID, dev core.Deviation) []int {
	d, ok := dev.(*deviation)
	if !ok {
		return nil
	}
	return d.epochs
}

// run aggregates the timeline. pin >= 0 restricts the deviation to one
// epoch. The honest per-epoch outcomes are cached, so a run only pays
// for the epochs the deviation actually touches, and those route
// through the per-epoch truthful snapshots and the context's arena.
func (s *System) run(ctx *core.PlayContext, deviator core.NodeID, dev core.Deviation, pin int) (core.Outcome, error) {
	if err := s.init(); err != nil {
		return core.Outcome{}, err
	}
	var d *deviation
	if deviator >= 0 && dev != nil {
		var ok bool
		if d, ok = dev.(*deviation); !ok {
			return core.Outcome{}, fmt.Errorf("churn: foreign deviation %q", dev.Name())
		}
	}

	out := core.Outcome{
		Utilities: timelineUtilities(ctx, len(s.tl.Identities())),
		Completed: true,
	}
	for _, id := range s.tl.Identities() {
		out.Utilities[core.NodeID(id)] = 0
	}

	for _, e := range s.tl.Epochs {
		var act *epochAction
		if d != nil && (pin < 0 || pin == e.Index) && d.activeIn(e.Index) {
			var err error
			act, err = d.act(e.Index)
			if err != nil {
				return core.Outcome{}, err
			}
		}
		epochOut := s.honest[e.Index]
		if act != nil {
			// The epoch outcome may live in the context's arena: it is
			// consumed below, before the next epoch's play reuses it.
			deviant, err := s.epochs[e.Index].Play(ctx, s.states[e.Index], core.NodeID(act.local), act.dev)
			if err != nil {
				return core.Outcome{}, fmt.Errorf("churn: epoch %d: %w", e.Index, err)
			}
			epochOut = deviant
		}
		if !epochOut.Completed {
			out.Completed = false
		}
		for i, id := range e.Members {
			out.Utilities[core.NodeID(id)] += epochOut.Utilities[core.NodeID(i)]
		}
		if act != nil && act.aliased {
			// Whitewashing epoch: restore the alias to its honest
			// utility and credit the delta to the true deviator.
			honest := s.honest[e.Index].Utilities[core.NodeID(act.local)]
			got := epochOut.Utilities[core.NodeID(act.local)]
			alias := e.IdentityOf(act.local)
			out.Utilities[core.NodeID(alias)] += honest - got
			out.Utilities[core.NodeID(deviator)] += got - honest
		}
		for _, det := range epochOut.Detected {
			if int(det) < len(e.Members) {
				out.Detected = append(out.Detected, core.NodeID(e.IdentityOf(graph.NodeID(det))))
			}
		}
	}
	return out, nil
}

// buildCatalogues assembles the per-identity deviation lists: every
// static catalogue entry wrapped over the identity's member epochs,
// plus the three boundary deviations where the schedule makes them
// meaningful.
func (s *System) buildCatalogues() {
	base := rational.Catalogue(s.variant == Faithful)
	if s.tl.Spec.Shards.Enabled() {
		// The sharded-settlement axis brings its deviation family along,
		// exactly as the static System adapters do: each epoch's play
		// already settles through the epoch's re-salted shard bank.
		base = append(base, rational.ShardCatalogue(s.variant == Faithful)...)
	}
	s.cats = make(map[Identity][]*deviation, len(s.tl.Identities()))
	for _, id := range s.tl.Identities() {
		id := id
		member := s.tl.MemberEpochs(id)
		cat := make([]*deviation, 0, len(base)+3)
		for _, rd := range base {
			rd := rd
			cat = append(cat, &deviation{
				name:    rd.Name(),
				classes: rd.Classes(),
				epochs:  member,
				act: func(e int) (*epochAction, error) {
					local, _ := s.tl.Epochs[e].Local(id)
					return &epochAction{local: local, dev: rd}, nil
				},
				execOnly: rd.ExecOnly(),
			})
		}
		if d := s.staleCatalogue(id, member); d != nil {
			cat = append(cat, d)
		}
		if d := s.leaveWithoutSettling(id); d != nil {
			cat = append(cat, d)
		}
		if d := s.leaveMasqueradingAsLoss(id); d != nil {
			cat = append(cat, d)
		}
		if d := s.rejoinFresh(id); d != nil {
			cat = append(cat, d)
		}
		s.cats[id] = cat
	}
}

// staleCatalogue is the first boundary deviation: in every epoch after
// its first, the deviator skips the construction-phase recomputation
// and re-advertises the catalogue it converged to in the previous
// epoch (entries touching departed nodes dropped, costs now possibly
// wrong). Under plain FPSS the stale prices can attract or shed
// traffic at yesterday's rates; under the extended specification the
// checkers' freshly mirrored computation diverges from the stale
// advertisement and the bank withholds the green light.
func (s *System) staleCatalogue(id Identity, member []int) *deviation {
	var epochs []int
	for _, e := range member {
		if e == 0 {
			continue
		}
		if _, prev := s.tl.Epochs[e-1].Local(id); prev {
			epochs = append(epochs, e)
		}
	}
	if len(epochs) == 0 {
		return nil
	}
	return &deviation{
		name:    "stale-catalogue-adverts",
		classes: []spec.ActionKind{spec.MessagePassing, spec.Computation},
		epochs:  epochs,
		act: func(e int) (*epochAction, error) {
			rt, pt, err := s.tl.staleTables(id, e)
			if err != nil {
				return nil, fmt.Errorf("churn: stale tables for %d@%d: %w", id, e, err)
			}
			local, _ := s.tl.Epochs[e].Local(id)
			rd := rational.NewDeviation("stale-catalogue-adverts",
				[]spec.ActionKind{spec.MessagePassing, spec.Computation},
				rational.Parts{Protocol: func(rational.Ctx) *fpss.Strategy {
					return &fpss.Strategy{
						PostRouting: func(fpss.RoutingTable) fpss.RoutingTable { return rt.Clone() },
						PostPricing: func(fpss.PricingTable) fpss.PricingTable { return pt.Clone() },
					}
				}})
			return &epochAction{local: local, dev: rd}, nil
		},
	}
}

// leaveWithoutSettling is the second boundary deviation: in its final
// member epoch the deviator reports an empty DATA4 and departs,
// betting that the money it owes leaves with it. Plain FPSS trusts the
// report — the exit scam keeps the full payment. The extended
// specification audits the execution phase before the boundary is
// processed (the ledger settles a leaver only after the epoch's
// checkpoint), so the fraud is repaid with the ε-above penalty on top.
func (s *System) leaveWithoutSettling(id Identity) *deviation {
	boundary, leaves := s.tl.DepartureOf(id)
	if !leaves {
		return nil
	}
	last := boundary - 1
	return &deviation{
		name:    "leave-without-settling",
		classes: []spec.ActionKind{spec.Computation},
		epochs:  []int{last},
		act: func(e int) (*epochAction, error) {
			local, _ := s.tl.Epochs[e].Local(id)
			return &epochAction{local: local, dev: underreportAll()}, nil
		},
		execOnly: true,
	}
}

// leaveMasqueradingAsLoss is the churn×loss composite of the exit
// scam: in its final member epoch the deviator goes half-silent —
// every other outgoing advertisement dropped at the handler, a pattern
// tuned to read like a ~50% lossy link — then departs with an empty
// DATA4, betting the audit writes the whole episode off as network
// weather around a leaver. The attribution gate is not fooled:
// handler-level drops never enter the sim's loss counters, so the
// faithful construction pins both the silence and the misreport on the
// node before the boundary settles it. An honest leaver on the same
// lossy links is the control — its genuine drops are the network's,
// and it departs unflagged. Only meaningful when both axes are on.
func (s *System) leaveMasqueradingAsLoss(id Identity) *deviation {
	if !s.tl.Spec.Loss.Enabled() {
		return nil
	}
	boundary, leaves := s.tl.DepartureOf(id)
	if !leaves {
		return nil
	}
	last := boundary - 1
	return &deviation{
		name:    "leave-masquerading-as-loss",
		classes: []spec.ActionKind{spec.MessagePassing, spec.Computation},
		epochs:  []int{last},
		act: func(e int) (*epochAction, error) {
			local, _ := s.tl.Epochs[e].Local(id)
			rd := rational.NewDeviation("leave-masquerading-as-loss",
				[]spec.ActionKind{spec.MessagePassing, spec.Computation},
				rational.Parts{
					Protocol: func(rational.Ctx) *fpss.Strategy {
						drops := 0 // per-play: Protocol builds a fresh closure each play
						return &fpss.Strategy{SendUpdate: func(_ graph.NodeID, u fpss.Update) (fpss.Update, bool) {
							drops++
							return u, drops%2 == 0
						}}
					},
					ReportPayment: func(fpss.PaymentList) fpss.PaymentList { return fpss.PaymentList{} },
				})
			return &epochAction{local: local, dev: rd}, nil
		},
	}
}

// rejoinFresh is the third boundary deviation — whitewashing: the
// deviator runs the exit scam of leaveWithoutSettling, then slips back
// in as one of the boundary's fresh identities and repeats it in every
// epoch it plays under the new name. The fresh account opens at zero,
// so nothing follows it across the boundary except what the in-epoch
// audit already settled — which is exactly why the extended
// specification keeps the whole scheme unprofitable (each round costs
// ε) while plain FPSS pays it once per identity.
func (s *System) rejoinFresh(id Identity) *deviation {
	boundary, leaves := s.tl.DepartureOf(id)
	if !leaves || len(s.tl.Epochs[boundary].Joined) == 0 {
		return nil
	}
	alias := s.tl.Epochs[boundary].Joined[0]
	epochs := []int{boundary - 1}
	epochs = append(epochs, s.tl.MemberEpochs(alias)...)
	return &deviation{
		name:    "rejoin-fresh-identity",
		classes: []spec.ActionKind{spec.InfoRevelation, spec.Computation},
		epochs:  epochs,
		act: func(e int) (*epochAction, error) {
			if e < boundary {
				local, _ := s.tl.Epochs[e].Local(id)
				return &epochAction{local: local, dev: underreportAll()}, nil
			}
			local, _ := s.tl.Epochs[e].Local(alias)
			return &epochAction{local: local, dev: underreportAll(), aliased: true}, nil
		},
		execOnly: true,
	}
}

// underreportAll is the exit-scam payment misreport: an empty DATA4.
func underreportAll() *rational.Deviation {
	return rational.NewDeviation("underreport-exit",
		[]spec.ActionKind{spec.Computation},
		rational.Parts{ReportPayment: func(fpss.PaymentList) fpss.PaymentList { return fpss.PaymentList{} }})
}
