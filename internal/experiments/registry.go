package experiments

import (
	"fmt"
	"regexp"
	"slices"
)

// Params parameterizes an experiment. Each registry entry's Params
// reproduce the paper table; tests pass other values to Gen to shrink
// or re-seed an experiment.
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
}

// Experiment is one table generator of the registry.
type Experiment struct {
	// ID is the stable experiment name ("E1".."E13").
	ID string
	// Params are the defaults that reproduce the paper table.
	Params Params
	// Slow marks experiments dominated by deviation searches; callers
	// running under -short skip them.
	Slow bool
	// Gen produces the table for a given parameterization.
	Gen func(Params) (*Table, error)
}

// clone deep-copies the slice field so a returned Params can be
// mutated freely without writing through to the registry table.
func (p Params) clone() Params {
	p.Sizes = append([]int(nil), p.Sizes...)
	return p
}

// Run generates the experiment's table with its registered Params.
func (e Experiment) Run() (*Table, error) { return e.Gen(e.Params.clone()) }

// registry lists every experiment in canonical order, E1 to E13. It
// is the one source of every consumer's experiment set: the Runner,
// cmd/benchtab's -run filter and the root benchmarks read it through
// Experiments or Match. A new experiment is one more entry here.
var registry = []Experiment{
	{ID: "E1", Gen: E1Figure1},
	{ID: "E2", Gen: E2Example1},
	{ID: "E3", Slow: true, Gen: E3Detection},
	{ID: "E4", Params: Params{Sizes: []int{6, 12, 18, 24}, Seed: 11}, Gen: E4Overhead},
	{ID: "E5", Params: Params{Sizes: []int{4, 7, 10, 13}, Seed: 12}, Gen: E5BFTBaseline},
	{ID: "E6", Slow: true, Params: Params{Trials: 3, Seed: 13}, Gen: E6Faithfulness},
	{ID: "E7", Gen: E7PhaseDecomposition},
	{ID: "E8", Params: Params{Trials: 40, Seed: 14}, Gen: E8Election},
	{ID: "E9", Params: Params{Sizes: []int{6, 12, 18, 24, 30}, Seed: 15}, Gen: E9Convergence},
	{ID: "E10", Gen: E10Execution},
	{ID: "E11", Slow: true, Gen: E11CheckerAblation},
	{ID: "E12", Gen: E12Failstop},
	{ID: "E13", Slow: true, Gen: E13DamageContainment},
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
