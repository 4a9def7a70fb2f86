package scenario

import (
	"hash/fnv"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Suite is a named cross-product of scenario axes: every combination
// of Families × Sizes × Workloads × CostModels becomes one Spec.
// Suites are seed-parameterized — Specs(seed) derives a distinct,
// stable per-scenario seed from the base seed and the scenario's
// identity, so a suite sweep is reproducible from one number and a
// scenario keeps its seed even when the suite definition is reordered
// or extended.
type Suite struct {
	// Name identifies the suite (faithcheck -suite <name>).
	Name string
	// Description is a one-liner for listings.
	Description string
	// Families / Sizes / Workloads / CostModels are the cross-product
	// axes. Every combination must be valid (e.g. sizes must factor
	// for Torus/TwoTier members); Specs surfaces the first invalid
	// combination as an error from Compile.
	Families   []Family
	Sizes      []int
	Workloads  []Workload
	CostModels []CostModel
	// Churn applies epoch dynamics uniformly to every Spec (zero value
	// = static). Dynamic suites are swept through the churn engine by
	// faithcheck instead of the single-epoch checker.
	Churn Churn
	// Loss applies the lossy-links failure axis uniformly to every
	// Spec (zero value = reliable network).
	Loss Loss
	// Shards applies the sharded-settlement failure axis uniformly to
	// every Spec (zero value = singleton bank).
	Shards Shards
	// ProfileSizes are the honest-profiling rungs above the suite's
	// deviation-search ceiling: sizes at which only the truthful
	// profile is built (central construction + both protocol variants'
	// honest snapshots) instead of sweeping the deviation grid. They
	// raise the suite's size ceiling to where the full search is not yet
	// affordable — n=100+ for internet — while still exercising every
	// construction path at that scale. perfbench's build workload reads
	// the internet suite's rungs through ProfileSpecs and times them.
	// Empty means the suite has no profiling tier.
	ProfileSizes []int
}

// Specs expands the cross product in deterministic order: family
// outermost, then size, workload, cost model. Combinations that
// collapse to the same scenario (Figure1 ignores the size and
// cost-model axes) are emitted once, not once per collapsed axis
// value.
func (s Suite) Specs(seed int64) []Spec {
	specs := make([]Spec, 0, len(s.Families)*len(s.Sizes)*len(s.Workloads)*len(s.CostModels))
	seen := make(map[string]bool)
	for _, fam := range s.Families {
		for _, n := range s.Sizes {
			for _, w := range s.Workloads {
				for _, cm := range s.CostModels {
					sp := Spec{
						Family:    fam,
						N:         n,
						Workload:  w,
						CostModel: cm,
						Churn:     s.Churn,
						Loss:      s.Loss,
						Shards:    s.Shards,
					}
					if fam == Figure1 {
						// Figure1 is fixed-size with fixed costs; the
						// size and cost-model axes don't apply.
						sp.N, sp.CostModel = 0, CostDefault
					}
					sp.Seed = deriveSeed(seed, sp)
					if seen[sp.Describe()] {
						continue
					}
					seen[sp.Describe()] = true
					specs = append(specs, sp)
				}
			}
		}
	}
	return specs
}

// ProfileSpecs expands the honest-profiling tier: every family at
// every ProfileSizes rung, under the suite's first workload and cost
// model (the profile times construction, not the demand-matrix axis).
// Seeds derive exactly like Specs', so a profile scenario is
// reproducible from the same base seed. perfbench's build workload
// compiles, solves, seeds and snapshots these specs.
func (s Suite) ProfileSpecs(seed int64) []Spec {
	if len(s.ProfileSizes) == 0 {
		return nil
	}
	var w Workload
	if len(s.Workloads) > 0 {
		w = s.Workloads[0]
	}
	var cm CostModel
	if len(s.CostModels) > 0 {
		cm = s.CostModels[0]
	}
	specs := make([]Spec, 0, len(s.Families)*len(s.ProfileSizes))
	for _, fam := range s.Families {
		if fam == Figure1 {
			continue // fixed-size; no profiling rung to raise
		}
		for _, n := range s.ProfileSizes {
			sp := Spec{
				Family:    fam,
				N:         n,
				Workload:  w,
				CostModel: cm,
			}
			sp.Seed = deriveSeed(seed, sp)
			specs = append(specs, sp)
		}
	}
	return specs
}

// deriveSeed mixes the base seed with the scenario's identity (its
// Describe label minus the seed part) through FNV-1a + splitmix64.
// Identity-keyed derivation means "prefattach n=24 hotspot heavy" gets
// the same seed under base seed 1 in every suite that contains it.
func deriveSeed(base int64, sp Spec) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(sp.Describe()))
	mixed := Mix64(uint64(base) ^ h.Sum64())
	// Keep seeds positive and nonzero: rand.NewSource accepts any
	// int64, but positive reads better in labels and never collides
	// with the "unset" zero.
	return int64(mixed%((1<<62)-1)) + 1
}

// Mix64 delegates to sim.Mix64 — the one splitmix64 finalizer every
// seed-derivation path shares (suite keying, the churn engine's
// schedule stream, the per-link drop schedules), so the paths can
// never silently diverge. The canonical definition lives in sim, the
// leaf package every seed consumer can import.
func Mix64(x uint64) uint64 { return sim.Mix64(x) }

// suites lists every built-in suite sorted by name. Each has a name
// and four non-empty axes (TestSuiteRegistry pins both and the order).
var suites = []Suite{
	// churn: the dynamics sweep — every scenario spans three epochs
	// with a join, a leave and occasional cost re-draws at each
	// boundary, and faithcheck replays the deviation grid per epoch
	// through the churn engine. n stays at 6: each scenario costs
	// roughly epochs× the static search (an all-pairs n=8 play is
	// ~60 ms, so a size-8 axis would push the blocking lane past ten
	// minutes on a 1-core runner — larger sizes ride the nightly lane
	// alongside the internet suite).
	{
		Name:        "churn",
		Description: "Epoch dynamics: joins/leaves/cost re-draws across 3 epochs",
		Families:    []Family{Random, PrefAttach, TwoTier},
		Sizes:       []int{6},
		Workloads:   []Workload{WorkloadAllPairs, WorkloadHotspot},
		CostModels:  []CostModel{CostUniform},
		Churn:       Churn{Epochs: 3, Joins: 1, Leaves: 1, RedrawFraction: 0.25},
	},
	// grid: the constant-degree, high-diameter counterpoint. Sizes
	// stay ≤ 12: an all-pairs torus deviation search is ~10 s at n=9
	// and ~85 s at n=12 on one core, and n=16 would push a sweep past
	// the hour — larger grids wait on further search parallelization
	// (see ROADMAP open items).
	{
		Name:        "grid",
		Description: "Torus grids under gossip and all-pairs demand",
		Families:    []Family{Torus},
		Sizes:       []int{9, 12},
		Workloads:   []Workload{WorkloadAllPairs, WorkloadGossip},
		CostModels:  []CostModel{CostUniform, CostBimodal},
	},
	// internet: the headline sweep — every Internet-like family under
	// every cost model and the asymmetric workloads. The deviation
	// search sweeps n∈{12,24}; above that the honest-profiling rungs
	// (n∈{48,100}) build the truthful profile only, in perfbench's
	// build workload — central construction is cheap enough that the
	// ceiling is the search grid, not the build.
	{
		Name:         "internet",
		Description:  "Internet-like families × all cost models × asymmetric workloads",
		Families:     []Family{PrefAttach, Waxman, TwoTier},
		Sizes:        []int{12, 24},
		Workloads:    []Workload{WorkloadAllPairs, WorkloadHotspot, WorkloadSparse},
		CostModels:   []CostModel{CostUniform, CostHeavyTailed, CostBimodal},
		ProfileSizes: []int{48, 100},
	},
	// loss: the failure-model sweep — every scenario plays under a 10%
	// bursty per-link drop rate, well under faithful.MaxTolerableLoss,
	// so honest runs must stay clean while the loss-exploiting
	// deviation family joins the search grid. Sizes stay at 6: the
	// retry envelope multiplies message latency, and the blocking lane
	// shares the churn lane's one-core budget.
	{
		Name:        "loss",
		Description: "Lossy links: 10% bursty drops, retry envelope, loss-exploiting deviations",
		Families:    []Family{Random, PrefAttach, TwoTier},
		Sizes:       []int{6},
		Workloads:   []Workload{WorkloadAllPairs},
		CostModels:  []CostModel{CostUniform},
		Loss:        Loss{Rate: 0.1, Burst: 3},
	},
	// settle: the sharded-settlement sweep — every scenario clears its
	// execution phase through a 2-shard crash-tolerant 2PC with a
	// participant crash-restart injected per settlement, and the
	// shard-window deviation family joins the search grid. Sizes stay
	// at 6 for the same one-core-lane budget as churn and loss.
	{
		Name:        "settle",
		Description: "Sharded settlement: 2 shards, participant crash-restarts, shard-window deviations",
		Families:    []Family{Random, TwoTier},
		Sizes:       []int{6},
		Workloads:   []Workload{WorkloadAllPairs},
		CostModels:  []CostModel{CostUniform},
		Shards:      Shards{K: 2, Crash: "participant"},
	},
	// smoke: the CI lane — small sizes, one cost model, finishes in
	// tens of seconds with the parallel checker.
	{
		Name:        "smoke",
		Description: "CI smoke: 3 families × n∈{6,8} × 2 workloads, uniform costs",
		Families:    []Family{Random, PrefAttach, TwoTier},
		Sizes:       []int{6, 8},
		Workloads:   []Workload{WorkloadAllPairs, WorkloadHotspot},
		CostModels:  []CostModel{CostUniform},
	},
	// workloads: one topology, every workload × cost model — isolates
	// the demand-matrix axis.
	{
		Name:        "workloads",
		Description: "Fixed random topology, every workload × cost model",
		Families:    []Family{Random},
		Sizes:       []int{8},
		Workloads:   []Workload{WorkloadAllPairs, WorkloadHotspot, WorkloadSparse, WorkloadGossip},
		CostModels:  []CostModel{CostUniform, CostHeavyTailed, CostBimodal},
	},
}

// LookupSuite finds a suite by name (case-insensitive).
func LookupSuite(name string) (Suite, bool) {
	for _, s := range suites {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return Suite{}, false
}

// SuiteNames lists the suite names sorted — for unknown-suite error
// messages and listings.
func SuiteNames() []string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.Name
	}
	return names
}

// Suites lists every suite sorted by name.
func Suites() []Suite { return slices.Clone(suites) }
