// Package scenario is the single place where experiment setups are
// constructed. A Spec declares a scenario — topology family × size ×
// cost model × flow workload × checker limit × pricing scheme × seed —
// and compiles deterministically into everything a run needs: the
// graph.Graph, the rational.Params, the plain/faithful core.System
// pair, a faithful.Config for honest protocol runs, and an
// fpss.ExecConfig template for execution-phase accounting. Experiments,
// benchmarks and the faithcheck and liveserve commands all route their
// setup through here instead of hand-rolling graphs and parameters.
//
// Determinism contract: a Spec is a pure function of its fields. Two
// compilations of the same Spec (in any process, on any build) yield
// identical graphs, traffic matrices and parameters, because every
// random draw comes from rand.NewSource(Seed) in a fixed order —
// structure first, then costs, then workload.
package scenario

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/rational"
	"repro/internal/settle"
	"repro/internal/sim"
)

// Family names a topology generator.
type Family string

// Topology families. The classic four predate the scenario layer; the
// Internet-like families (PrefAttach, Waxman, Torus, TwoTier) were
// added with it.
const (
	// Figure1 is the paper's fixed 6-node worked example (fixed costs;
	// N, CostModel and MaxCost must be left at their zero values).
	Figure1 Family = "figure1"
	// Clique is the complete graph on N nodes.
	Clique Family = "clique"
	// Ring is a single cycle on N nodes.
	Ring Family = "ring"
	// RingChords is a cycle plus ExtraEdges random chords.
	RingChords Family = "ring-chords"
	// Random is a random Hamiltonian cycle plus ExtraEdges chords
	// (graph.RandomBiconnected).
	Random Family = "random"
	// PrefAttach is a Barabási–Albert-style scale-free graph with
	// attachment degree 2, biconnected-repaired.
	PrefAttach Family = "prefattach"
	// Waxman is the geometric random graph (nodes in the unit square,
	// distance-decaying edge probability), biconnected-repaired.
	Waxman Family = "waxman"
	// Torus is the rows×cols wrap-around grid; N must factor as
	// rows·cols with both ≥ 3.
	Torus Family = "torus"
	// TwoTier is the clustered "AS" topology: a core ring of cluster
	// heads, member cycles per cluster, random uplinks; N must factor
	// as clusters·size with clusters ≥ 3 and size ≥ 2.
	TwoTier Family = "twotier"
)

// Families lists every topology family, stable order.
func Families() []Family {
	return []Family{Figure1, Clique, Ring, RingChords, Random, PrefAttach, Waxman, Torus, TwoTier}
}

// CostModel names a per-node transit-cost distribution.
type CostModel string

// Cost models. All scale with Spec.MaxCost.
const (
	// CostDefault is the family's native distribution — uniform on
	// [1, MaxCost] for every generated family, the paper's fixed costs
	// for Figure1. It is the byte-compatibility mode: legacy families
	// delegate entirely to their classic constructors.
	CostDefault CostModel = ""
	// CostUniform draws uniformly from [1, MaxCost].
	CostUniform CostModel = "uniform"
	// CostHeavyTailed draws a discretized Pareto (min MaxCost/5, tail
	// index 1.3): a few very expensive carriers among many cheap ones.
	CostHeavyTailed CostModel = "heavy-tailed"
	// CostBimodal mixes honest/cheap nodes (uniform [1, MaxCost/3])
	// with a 20% expensive population around 20·MaxCost — the sharpest
	// VCG-pricing stress.
	CostBimodal CostModel = "bimodal"
)

// CostModels lists every named cost model, stable order.
func CostModels() []CostModel {
	return []CostModel{CostUniform, CostHeavyTailed, CostBimodal}
}

// Workload names an execution-phase demand matrix.
type Workload string

// Workloads.
const (
	// WorkloadDefault is all-pairs — the classic "everyone exchanges
	// one packet with everyone" demand of rational.DefaultParams.
	WorkloadDefault Workload = ""
	// WorkloadAllPairs sends Packets between every ordered pair.
	WorkloadAllPairs Workload = "all-pairs"
	// WorkloadHotspot routes everything through one seed-chosen hub:
	// every node sends to the hub and the hub replies to every node.
	WorkloadHotspot Workload = "hotspot"
	// WorkloadSparse samples ~2·N distinct random ordered pairs.
	WorkloadSparse Workload = "sparse"
	// WorkloadGossip has every node send to 3 random distinct peers
	// (all of them when there are fewer).
	WorkloadGossip Workload = "gossip"
)

// Workloads lists every named workload, stable order.
func Workloads() []Workload {
	return []Workload{WorkloadAllPairs, WorkloadHotspot, WorkloadSparse, WorkloadGossip}
}

// Churn configures the epoch-based dynamics engine (internal/churn):
// how many construction+execution rounds a scenario plays and how the
// membership evolves between them. The zero value means static —
// exactly one epoch — so every pre-churn Spec compiles byte-identically
// to before. Compile itself never reads Churn; the churn engine builds
// epoch 0 through Compile and evolves later epochs from its own
// seed-derived schedule stream.
type Churn struct {
	// Epochs is the number of epochs (construction phase + execution
	// phase rounds). 0 or 1 means static.
	Epochs int
	// Joins / Leaves are the node arrivals/departures drawn at each
	// epoch boundary. Leaves are capped so the population never falls
	// below 4 nodes, which biconnectivity repair needs to work with.
	Joins, Leaves int
	// RedrawFraction is the probability that a surviving node's
	// transit cost re-draws from the Spec's cost model at a boundary
	// (type dynamics on top of membership dynamics).
	RedrawFraction float64
}

// Dynamic reports whether the configuration actually spans epochs.
func (c Churn) Dynamic() bool { return c.Epochs > 1 }

// Loss configures the lossy-links failure axis (sim.LossModel): seeded
// per-link drops with the protocol layers' bounded retry envelope. The
// zero value means a reliable network, so every pre-loss Spec compiles
// byte-identically to before. Like Churn, the axis renders into
// Describe — the scenario's identity — whenever it is active.
type Loss struct {
	// Rate is the per-attempt drop probability in [0, 1). Honest runs
	// stay effectively reliable up to faithful.MaxTolerableLoss.
	Rate float64
	// Burst is the mean loss-burst length (Gilbert–Elliott); <= 1
	// means independent drops. The stationary rate stays Rate.
	Burst float64
}

// Enabled reports whether the axis actually drops anything.
func (l Loss) Enabled() bool { return l.Rate > 0 }

// validate rejects a drop rate outside [0, 1) and a burst length that
// is negative or set without a rate. The negated comparisons reject
// NaN too.
func (l Loss) validate() error {
	if !(l.Rate >= 0 && l.Rate < 1) {
		return fmt.Errorf("loss: rate is a drop probability in [0, 1), got %g", l.Rate)
	}
	if !(l.Burst >= 0) {
		return fmt.Errorf("loss: burst is a mean burst length >= 0, got %g", l.Burst)
	}
	if l.Burst != 0 && !l.Enabled() {
		return fmt.Errorf("loss: burst %g needs a rate > 0", l.Burst)
	}
	return nil
}

// lossSeedSalt decorrelates the drop-schedule stream from the Spec's
// structural stream ("loss!" in ASCII), exactly as the churn engine
// salts its schedule stream.
const lossSeedSalt = 0x6c6f737321

// Shards configures the sharded-settlement failure axis
// (internal/settle): the trusted bank splits into K shards and every
// execution phase clears through the crash-tolerant two-phase commit,
// optionally under a named crash-fault plan. The zero value keeps the
// classic singleton bank, so every pre-shard Spec compiles
// byte-identically to before. An enabled axis also unlocks the
// shard-window deviation family in the search catalogue.
type Shards struct {
	// K is the shard count; 0 disables the axis.
	K int
	// Crash names the crash-fault plan injected into every settlement
	// run: "" (no faults), "coordinator", "participant" or "recovery"
	// (settle.Plans).
	Crash string
}

// Enabled reports whether the settlement is actually sharded.
func (sh Shards) Enabled() bool { return sh.K > 0 }

// validate rejects axis combinations that would silently do nothing.
func (sh Shards) validate() error {
	if sh.K < 0 {
		return fmt.Errorf("shards: K must be >= 0, got %d", sh.K)
	}
	if !settle.ValidPlan(sh.Crash) {
		known := make([]string, 0, len(settle.Plans))
		for _, p := range settle.Plans {
			if p != settle.PlanNone {
				known = append(known, p)
			}
		}
		return fmt.Errorf("shards: unknown crash plan %q (known: %v)", sh.Crash, known)
	}
	if sh.Crash != settle.PlanNone && !sh.Enabled() {
		return fmt.Errorf("shards: crash plan %q needs K > 0", sh.Crash)
	}
	return nil
}

// shardSeedSalt decorrelates the shard routing/crash stream from the
// Spec's structural stream ("shard" in ASCII), mirroring lossSeedSalt.
const shardSeedSalt = 0x7368617264

// Spec declares a scenario. The zero value of most fields means "the
// classic default", so the zero Spec (plus a Family) reproduces the
// setups the experiments used before the scenario layer existed.
type Spec struct {
	// Family selects the topology generator (required).
	Family Family
	// N is the node count. Required for every family except Figure1
	// (fixed at 6). Torus and TwoTier additionally require N to factor
	// (see the family docs).
	N int
	// ExtraEdges is the chord count for Random/RingChords; 0 means the
	// family default N/2 and NoExtraEdges means exactly zero chords
	// (see Chords).
	ExtraEdges int
	// MaxCost scales the cost model (default 10).
	MaxCost graph.Cost
	// CostModel selects the transit-cost distribution.
	CostModel CostModel
	// Workload selects the demand matrix.
	Workload Workload
	// Packets is the per-flow packet count (default 1).
	Packets int64
	// CheckerLimit caps checkers per principal in the faithful
	// protocol (0 = every neighbor, the paper's assignment).
	CheckerLimit int
	// Scheme selects the plain-FPSS pricing rule (0 = VCG).
	Scheme fpss.PricingScheme
	// Churn selects the epoch dynamics (zero value = static). Compile
	// ignores it; internal/churn consumes it.
	Churn Churn
	// Loss selects the lossy-links failure axis (zero value = reliable
	// network). Materialize renders it into Params.Loss; the churn
	// engine re-salts the schedule per epoch (LossModelForEpoch).
	Loss Loss
	// Shards selects the sharded-settlement failure axis (zero value =
	// singleton bank). Materialize renders it into Params.Settle; the
	// churn engine re-salts the seed per epoch (SettleOptionsForEpoch).
	Shards Shards
	// Seed drives every random draw of Compile.
	Seed int64
}

// Compiled is a Spec materialized: the one artifact every consumer
// shares. Graph and Params are read-only after compilation.
type Compiled struct {
	Spec   Spec
	Graph  *graph.Graph
	Params rational.Params
}

// Compile materializes the Spec from its own seed. See the package
// comment for the determinism contract.
func (s Spec) Compile() (*Compiled, error) {
	return s.BuildWith(rand.New(rand.NewSource(s.Seed)))
}

// BuildWith materializes the Spec drawing from a caller-owned rng
// stream instead of Seed. Experiments that thread one rng through a
// sweep (trial after trial, size after size) use this form: with
// CostModel/Workload at their defaults the rng consumption is exactly
// what the classic constructors performed, so pre-scenario tables stay
// byte-identical.
func (s Spec) BuildWith(rng *rand.Rand) (*Compiled, error) {
	if err := s.Loss.validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.describeTopology(), err)
	}
	if err := s.Shards.validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.describeTopology(), err)
	}
	g, err := s.buildGraph(rng)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.describeTopology(), err)
	}
	traffic, err := s.buildTraffic(g.N(), rng)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.describeTopology(), err)
	}
	return s.Materialize(g, traffic), nil
}

// CostFunc exposes the Spec's transit-cost distribution — the churn
// engine draws joiner costs and boundary re-draws from the same model
// the static compilation used.
func (s Spec) CostFunc() (graph.CostFn, error) { return s.costFn() }

// TrafficFor builds the Spec's workload demand matrix for an arbitrary
// population size, drawing from the supplied rng. The churn engine
// calls this once per epoch: membership changes re-shape the matrix
// (a departed hotspot hub must be re-drawn among the new members), so
// the workload is a per-epoch artifact, not a compile-time one.
func (s Spec) TrafficFor(n int, rng *rand.Rand) (fpss.Traffic, error) {
	return s.buildTraffic(n, rng)
}

// Materialize wraps an externally built graph and demand matrix in a
// Compiled carrying this Spec's economic parameters, exactly as
// BuildWith would have. The churn engine materializes each evolved
// epoch through here so per-epoch systems share one parameter path
// with static scenarios.
func (s Spec) Materialize(g *graph.Graph, traffic fpss.Traffic) *Compiled {
	params := rational.DefaultParams(g)
	params.Traffic = traffic
	params.CheckerLimit = s.CheckerLimit
	if s.Scheme != 0 {
		params.Scheme = s.Scheme
	}
	params.Loss = s.LossModel()
	params.Settle = s.SettleOptions()
	return &Compiled{Spec: s, Graph: g, Params: params}
}

// LossModel renders the Spec's loss axis into the simulator model. The
// schedule seed mixes the Spec seed with the loss salt, so two specs
// differing only in Seed see different drop schedules while the same
// Spec always replays the same one. A disabled axis yields the zero
// model.
func (s Spec) LossModel() sim.LossModel {
	if !s.Loss.Enabled() {
		return sim.LossModel{}
	}
	return sim.LossModel{
		Rate:  s.Loss.Rate,
		Burst: s.Loss.Burst,
		Seed:  sim.Mix64(uint64(s.Seed) ^ lossSeedSalt),
	}
}

// LossModelForEpoch re-salts the drop schedule for a churn epoch, so
// boundary re-runs don't replay epoch 0's exact drops. Epoch 0 is the
// static model itself — a static scenario and a churn scenario's first
// epoch see identical schedules.
func (s Spec) LossModelForEpoch(epoch int) sim.LossModel {
	m := s.LossModel()
	if epoch > 0 && m.Enabled() {
		m.Seed = sim.Mix64(m.Seed ^ uint64(epoch))
	}
	return m
}

// SettleOptions renders the Spec's shard axis into the settlement
// engine's options. The seed mixes the Spec seed with the shard salt,
// so two specs differing only in Seed route accounts and time crashes
// differently while the same Spec always replays the same settlement. A disabled axis yields the zero
// options — the singleton bank.
func (s Spec) SettleOptions() settle.Options {
	if !s.Shards.Enabled() {
		return settle.Options{}
	}
	return settle.Options{
		Shards: s.Shards.K,
		Plan:   s.Shards.Crash,
		Seed:   sim.Mix64(uint64(s.Seed) ^ shardSeedSalt),
	}
}

// SettleOptionsForEpoch re-salts the settlement seed for a churn
// epoch: fresh home-shard routing and crash timings per epoch, exactly
// as LossModelForEpoch re-draws the drop schedule. Epoch 0 keeps the
// static derivation.
func (s Spec) SettleOptionsForEpoch(epoch int) settle.Options {
	o := s.SettleOptions()
	if epoch > 0 && o.Enabled() {
		o.Seed = sim.Mix64(o.Seed ^ uint64(epoch))
	}
	return o
}

// NoExtraEdges is the Spec.ExtraEdges sentinel for "exactly zero
// chords" — the zero value selects the family default N/2 instead.
const NoExtraEdges = -1

// Chords converts a literal chord count into a Spec.ExtraEdges value,
// mapping 0 onto NoExtraEdges. Sweeps that draw chord counts from an
// rng (which may legitimately draw 0) thread them through here.
func Chords(k int) int {
	if k == 0 {
		return NoExtraEdges
	}
	return k
}

// maxCost returns the cost scale, defaulted.
func (s Spec) maxCost() graph.Cost {
	if s.MaxCost > 0 {
		return s.MaxCost
	}
	return 10
}

// costFn maps the CostModel onto a graph.CostFn; nil means "let the
// family's constructor draw its native uniform costs".
func (s Spec) costFn() (graph.CostFn, error) {
	max := s.maxCost()
	switch s.CostModel {
	case CostDefault, CostUniform:
		return graph.UniformCost(max), nil
	case CostHeavyTailed:
		min := max / 5
		if min < 1 {
			min = 1
		}
		return graph.HeavyTailedCost(min, 1.3), nil
	case CostBimodal:
		cheap := max / 3
		if cheap < 1 {
			cheap = 1
		}
		return graph.BimodalCost(cheap, 20*max, 0.2), nil
	default:
		return nil, fmt.Errorf("unknown cost model %q", s.CostModel)
	}
}

// buildGraph draws the topology and costs. Legacy families with the
// default cost model delegate wholesale to their classic constructors
// (identical rng stream = byte-identical graphs); non-default cost
// models re-draw the cost vector afterwards.
func (s Spec) buildGraph(rng *rand.Rand) (*graph.Graph, error) {
	extra := s.ExtraEdges
	switch {
	case extra < 0:
		extra = 0
	case extra == 0:
		extra = s.N / 2
	}
	switch s.Family {
	case Figure1:
		if s.N != 0 && s.N != 6 {
			return nil, fmt.Errorf("figure1 is fixed at n=6, got n=%d", s.N)
		}
		if s.CostModel != CostDefault {
			return nil, fmt.Errorf("figure1 has fixed paper costs; cost model %q not applicable", s.CostModel)
		}
		return graph.Figure1(), nil
	case Clique:
		if s.N < 3 {
			return nil, fmt.Errorf("clique needs n >= 3, got %d", s.N)
		}
		cost, err := s.costFn()
		if err != nil {
			return nil, err
		}
		costs := make([]graph.Cost, s.N)
		for i := range costs {
			costs[i] = cost(rng)
		}
		return graph.Clique(costs)
	case Ring:
		return s.recost(rng, func() (*graph.Graph, error) { return graph.Ring(s.N, s.maxCost(), rng) })
	case RingChords:
		return s.recost(rng, func() (*graph.Graph, error) {
			return graph.RingWithChords(s.N, extra, s.maxCost(), rng)
		})
	case Random:
		return s.recost(rng, func() (*graph.Graph, error) {
			return graph.RandomBiconnected(s.N, extra, s.maxCost(), rng)
		})
	case PrefAttach:
		cost, err := s.costFn()
		if err != nil {
			return nil, err
		}
		return graph.PreferentialAttachment(s.N, 2, cost, rng)
	case Waxman:
		cost, err := s.costFn()
		if err != nil {
			return nil, err
		}
		// Fixed shape parameters: moderately dense with a bias toward
		// short links, the classic Waxman (0.6, 0.25) regime.
		return graph.Waxman(s.N, 0.6, 0.25, cost, rng)
	case Torus:
		cost, err := s.costFn()
		if err != nil {
			return nil, err
		}
		rows, cols, err := torusDims(s.N)
		if err != nil {
			return nil, err
		}
		return graph.Torus(rows, cols, cost, rng)
	case TwoTier:
		cost, err := s.costFn()
		if err != nil {
			return nil, err
		}
		clusters, size, err := twoTierDims(s.N)
		if err != nil {
			return nil, err
		}
		return graph.TwoTier(clusters, size, cost, rng)
	case "":
		return nil, fmt.Errorf("no topology family set")
	default:
		return nil, fmt.Errorf("unknown topology family %q (known: %v)", s.Family, Families())
	}
}

// recost runs a classic constructor (which draws its own uniform
// costs) and, for non-default cost models only, overwrites the cost
// vector with fresh model draws. The default path leaves the rng
// stream exactly as the pre-scenario code consumed it.
func (s Spec) recost(rng *rand.Rand, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	g, err := build()
	if err != nil {
		return nil, err
	}
	if s.CostModel == CostDefault {
		return g, nil
	}
	cost, err := s.costFn()
	if err != nil {
		return nil, err
	}
	for i := 0; i < g.N(); i++ {
		if err := g.SetCost(graph.NodeID(i), cost(rng)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// torusDims factors n into rows×cols with both ≥ 3, preferring the
// squarest split.
func torusDims(n int) (rows, cols int, err error) {
	for r := intSqrt(n); r >= 3; r-- {
		if n%r == 0 && n/r >= 3 {
			return r, n / r, nil
		}
	}
	return 0, 0, fmt.Errorf("torus needs n = rows·cols with rows, cols >= 3; n=%d does not factor", n)
}

// twoTierDims factors n into clusters×size with clusters ≥ 3 and
// size ≥ 2, preferring the smallest viable cluster count (few big
// clusters look most AS-like).
func twoTierDims(n int) (clusters, size int, err error) {
	for c := 3; c*2 <= n; c++ {
		if n%c == 0 {
			return c, n / c, nil
		}
	}
	return 0, 0, fmt.Errorf("two-tier needs n = clusters·size with clusters >= 3, size >= 2; n=%d does not factor", n)
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// buildTraffic draws the workload demand matrix. All-pairs consumes no
// randomness (byte-compatibility with rational.DefaultParams); the
// randomized workloads draw from rng after the topology.
func (s Spec) buildTraffic(n int, rng *rand.Rand) (fpss.Traffic, error) {
	packets := s.Packets
	if packets <= 0 {
		packets = 1
	}
	switch s.Workload {
	case WorkloadDefault, WorkloadAllPairs:
		return fpss.AllToAllTraffic(n, packets), nil
	case WorkloadHotspot:
		hub := graph.NodeID(rng.Intn(n))
		t := make(fpss.Traffic, 2*(n-1))
		for i := 0; i < n; i++ {
			id := graph.NodeID(i)
			if id == hub {
				continue
			}
			t[[2]graph.NodeID{id, hub}] = packets
			t[[2]graph.NodeID{hub, id}] = packets
		}
		return t, nil
	case WorkloadSparse:
		want := 2 * n
		if max := n * (n - 1); want > max {
			want = max
		}
		t := make(fpss.Traffic, want)
		for len(t) < want {
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			if src == dst {
				continue
			}
			t[[2]graph.NodeID{src, dst}] = packets
		}
		return t, nil
	case WorkloadGossip:
		fanout := min(3, n-1)
		t := make(fpss.Traffic, n*fanout)
		for i := 0; i < n; i++ {
			src := graph.NodeID(i)
			sent := 0
			for sent < fanout {
				dst := graph.NodeID(rng.Intn(n))
				if dst == src {
					continue
				}
				key := [2]graph.NodeID{src, dst}
				if _, dup := t[key]; dup {
					continue
				}
				t[key] = packets
				sent++
			}
		}
		return t, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", s.Workload, Workloads())
	}
}

// Systems returns the plain and faithful core.System pair playing this
// scenario — the two sides every faithfulness comparison needs.
func (c *Compiled) Systems() (*rational.PlainSystem, *rational.FaithfulSystem) {
	return rational.Systems(c.Graph, c.Params)
}

// FaithfulSystem returns the extended-specification side alone.
func (c *Compiled) FaithfulSystem() *rational.FaithfulSystem {
	_, f := rational.Systems(c.Graph, c.Params)
	return f
}

// FaithfulConfig returns an honest-run faithful.Config for the
// scenario: same graph, traffic and economic parameters the
// FaithfulSystem plays deviations against.
func (c *Compiled) FaithfulConfig() faithful.Config {
	return faithful.Config{
		Graph:              c.Graph,
		Traffic:            c.Params.Traffic,
		DeliveryValue:      c.Params.DeliveryValue,
		UndeliveredPenalty: c.Params.UndeliveredPenalty,
		CheckerLimit:       c.Params.CheckerLimit,
		Loss:               c.Params.Loss,
	}
}

// ExecConfig returns an execution-phase accounting template: true
// costs, traffic and utility parameters filled in, tables left to the
// caller.
func (c *Compiled) ExecConfig() fpss.ExecConfig {
	n := c.Graph.N()
	trueCosts := make(fpss.CostTable, n)
	for i := 0; i < n; i++ {
		trueCosts[graph.NodeID(i)] = c.Graph.Cost(graph.NodeID(i))
	}
	return fpss.ExecConfig{
		TrueCosts:          trueCosts,
		Traffic:            c.Params.Traffic,
		DeliveryValue:      c.Params.DeliveryValue,
		UndeliveredPenalty: c.Params.UndeliveredPenalty,
		Scheme:             c.Params.Scheme,
	}
}

// describeTopology is the topology half of Describe (used in errors,
// where workload/seed may not have been reached yet).
func (s Spec) describeTopology() string {
	fam := string(s.Family)
	if fam == "" {
		fam = "<none>"
	}
	if s.Family == Figure1 {
		return "figure1"
	}
	return fmt.Sprintf("%s n=%d", fam, s.N)
}

// Describe renders the Spec as a stable one-line label, e.g.
// "prefattach n=24 costs=heavy-tailed workload=hotspot seed=7". It is
// the scenario's identity for suite seed derivation and dedup, so every
// field that changes what Compile builds renders here whenever it is
// not at its default; an omitted field would let distinct specs
// collide.
func (s Spec) Describe() string {
	parts := []string{s.describeTopology()}
	if (s.Family == RingChords || s.Family == Random) && s.ExtraEdges != 0 {
		parts = append(parts, fmt.Sprintf("chords=%d", max(s.ExtraEdges, 0)))
	}
	if s.Family != Figure1 && s.MaxCost > 0 {
		parts = append(parts, fmt.Sprintf("maxcost=%d", s.MaxCost))
	}
	if s.CostModel != CostDefault {
		parts = append(parts, "costs="+string(s.CostModel))
	}
	if s.Workload != WorkloadDefault {
		parts = append(parts, "workload="+string(s.Workload))
	}
	if s.Packets > 1 {
		parts = append(parts, fmt.Sprintf("packets=%d", s.Packets))
	}
	if s.CheckerLimit > 0 {
		parts = append(parts, fmt.Sprintf("checkers=%d", s.CheckerLimit))
	}
	if s.Scheme == fpss.SchemeDeclaredCost {
		parts = append(parts, "scheme=declared-cost")
	}
	if s.Churn.Dynamic() {
		// Every Churn field that changes the timeline renders, by the
		// same identity rule. %g keeps the full RedrawFraction precision.
		churn := fmt.Sprintf("epochs=%d join=%d leave=%d", s.Churn.Epochs, s.Churn.Joins, s.Churn.Leaves)
		if s.Churn.RedrawFraction > 0 {
			churn += fmt.Sprintf(" redraw=%g", s.Churn.RedrawFraction)
		}
		parts = append(parts, churn)
	}
	if s.Loss.Enabled() {
		// Same identity rule as Churn: every loss field that changes the
		// drop schedule renders, so distinct lossy specs never collide.
		loss := fmt.Sprintf("loss=%g", s.Loss.Rate)
		if s.Loss.Burst > 1 {
			loss += fmt.Sprintf(" burst=%g", s.Loss.Burst)
		}
		parts = append(parts, loss)
	}
	if s.Shards.Enabled() {
		// Same identity rule again: every shard field that changes the
		// settlement renders, so distinct sharded specs never collide.
		sh := fmt.Sprintf("shards=%d", s.Shards.K)
		if s.Shards.Crash != settle.PlanNone {
			sh += " crash=" + s.Shards.Crash
		}
		parts = append(parts, sh)
	}
	parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	return strings.Join(parts, " ")
}

// ParseFamily resolves a user-supplied family name (the faithcheck and
// liveserve flags).
func ParseFamily(name string) (Family, error) {
	f := Family(strings.ToLower(strings.TrimSpace(name)))
	for _, known := range Families() {
		if f == known {
			return f, nil
		}
	}
	return "", fmt.Errorf("unknown topology %q (known: %v)", name, Families())
}

// ParseWorkload resolves a user-supplied workload name.
func ParseWorkload(name string) (Workload, error) {
	w := Workload(strings.ToLower(strings.TrimSpace(name)))
	if w == WorkloadDefault {
		return WorkloadAllPairs, nil
	}
	for _, known := range Workloads() {
		if w == known {
			return w, nil
		}
	}
	return "", fmt.Errorf("unknown workload %q (known: %v)", name, Workloads())
}

// ParseCostModel resolves a user-supplied cost-model name.
func ParseCostModel(name string) (CostModel, error) {
	m := CostModel(strings.ToLower(strings.TrimSpace(name)))
	if m == CostDefault {
		return CostDefault, nil
	}
	for _, known := range CostModels() {
		if m == known {
			return m, nil
		}
	}
	return "", fmt.Errorf("unknown cost model %q (known: %v)", name, CostModels())
}
