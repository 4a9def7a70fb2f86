package experiments

import (
	"fmt"
	"regexp"
	"slices"

	"repro/internal/fpss"
)

// Params parameterizes an experiment. When passed to
// Experiment.Generate, the zero value of any field means "use the
// experiment's default" — the defaults reproduce the paper tables
// exactly, and the registry table is their single source of truth.
// Sweeping these fields opens scenario variants (bigger topologies,
// more sampled profiles, alternate pricing) without new top-level
// generators.
type Params struct {
	// Sizes are the topology sizes for sweep experiments (E4, E5, E9).
	Sizes []int
	// Trials is the sampled-profile count for randomized experiments
	// (E6, E8).
	Trials int
	// Seed is the base RNG seed. Every generator derives all of its
	// randomness from this value, so a Params value fully determines
	// the output table — the property the parallel runner relies on.
	Seed int64
	// Scheme overrides the pricing rule where one applies (E6, E11,
	// E13). Zero keeps the experiment's default (VCG).
	Scheme fpss.PricingScheme
}

// Experiment is one table generator of the registry.
type Experiment struct {
	// ID is the stable experiment name ("E1".."E13").
	ID string
	// Title is a one-line description for listings.
	Title string
	// Params are the defaults that reproduce the paper table.
	Params Params
	// Slow marks experiments dominated by deviation searches; callers
	// running under -short skip them.
	Slow bool
	// Gen produces the table for a given parameterization.
	Gen func(Params) (*Table, error)
}

// withDefaults fills zero fields from d.
func (p Params) withDefaults(d Params) Params {
	if len(p.Sizes) == 0 {
		p.Sizes = d.Sizes
	}
	if p.Trials == 0 {
		p.Trials = d.Trials
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.Scheme == 0 {
		p.Scheme = d.Scheme
	}
	return p
}

// clone deep-copies the slice field so a returned Params can be
// mutated freely without writing through to the registry table.
func (p Params) clone() Params {
	p.Sizes = append([]int(nil), p.Sizes...)
	return p
}

// Generate runs the generator with p, filling any zero field from the
// experiment's registered defaults — the one place the
// zero-means-default contract is implemented. Prefer this over
// calling Gen directly.
func (e Experiment) Generate(p Params) (*Table, error) {
	return e.Gen(p.withDefaults(e.Params).clone())
}

// Run generates the experiment's table with its default parameters.
func (e Experiment) Run() (*Table, error) { return e.Generate(Params{}) }

// registry lists every experiment in canonical order, E1 to E13. It
// is the one source of every consumer's experiment set: the Runner,
// cmd/benchtab's -run filter and the root benchmarks read it through
// Experiments or Match. A new experiment is one more entry here.
var registry = []Experiment{
	{ID: "E1", Title: "Figure 1 LCPs and quoted costs", Gen: E1Figure1},
	{ID: "E2", Title: "Example 1 manipulation sweep", Gen: E2Example1},
	{ID: "E3", Title: "Manipulation detection matrix", Slow: true, Gen: E3Detection},
	{ID: "E4", Title: "Checker-scheme overhead sweep",
		Params: Params{Sizes: []int{6, 12, 18, 24}, Seed: 11}, Gen: E4Overhead},
	{ID: "E5", Title: "BFT replication baseline",
		Params: Params{Sizes: []int{4, 7, 10, 13}, Seed: 12}, Gen: E5BFTBaseline},
	{ID: "E6", Title: "Deviation search (Theorem 1)", Slow: true,
		Params: Params{Trials: 3, Seed: 13}, Gen: E6Faithfulness},
	{ID: "E7", Title: "Phase decomposition savings", Gen: E7PhaseDecomposition},
	{ID: "E8", Title: "Leader election naive vs faithful",
		Params: Params{Trials: 40, Seed: 14}, Gen: E8Election},
	{ID: "E9", Title: "Construction convergence sweep",
		Params: Params{Sizes: []int{6, 12, 18, 24, 30}, Seed: 15}, Gen: E9Convergence},
	{ID: "E10", Title: "Execution-phase enforcement", Gen: E10Execution},
	{ID: "E11", Title: "Checker-assignment ablation", Slow: true, Gen: E11CheckerAblation},
	{ID: "E12", Title: "Failstop interplay (§5)", Gen: E12Failstop},
	{ID: "E13", Title: "Victim damage containment", Slow: true, Gen: E13DamageContainment},
}

// Experiments returns every experiment in canonical order (E1 to
// E13). Each Params is a copy, so callers may edit it freely.
func Experiments() []Experiment {
	out := slices.Clone(registry)
	for i := range out {
		out[i].Params = out[i].Params.clone()
	}
	return out
}

// Match returns the experiments whose ID matches the regular
// expression (case-insensitive, anchored to the whole ID), in
// canonical order. An empty pattern matches everything.
func Match(pattern string) ([]Experiment, error) {
	all := Experiments()
	if pattern == "" {
		return all, nil
	}
	re, err := regexp.Compile("(?i)^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("experiment pattern %q: %w", pattern, err)
	}
	out := make([]Experiment, 0, len(all))
	for _, e := range all {
		if re.MatchString(e.ID) {
			out = append(out, e)
		}
	}
	return out, nil
}
