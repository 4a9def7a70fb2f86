package experiments

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fpss"
)

// Params parameterizes a registered experiment. When passed to
// Experiment.Generate, the zero value of any field means "use the
// experiment's registered default" — the defaults reproduce the paper
// tables exactly, and the registration is their single source of
// truth. Sweeping these fields opens scenario variants (bigger
// topologies, more sampled profiles, alternate pricing) without new
// top-level generators.
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

// Experiment is one registered table generator.
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
// mutated freely without writing through to the registry.
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

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
)

// Register adds an experiment to the package registry. New experiments
// register here instead of being threaded through a hardcoded All()
// dispatch; ID collisions and missing generators are programmer errors
// and panic at init time.
func Register(e Experiment) {
	if e.ID == "" || e.Gen == nil {
		panic("experiments: Register needs an ID and a Gen func")
	}
	key := strings.ToLower(e.ID)
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration of %s", e.ID))
	}
	registry[key] = e
}

// Experiments returns every registered experiment in canonical order
// (numeric suffix ascending, then lexical).
func Experiments() []Experiment {
	regMu.RLock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		e.Params = e.Params.clone()
		out = append(out, e)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		ni, iok := idNum(out[i].ID)
		nj, jok := idNum(out[j].ID)
		if iok && jok && ni != nj {
			return ni < nj
		}
		if iok != jok {
			return iok
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// idNum extracts the trailing number of an "E<n>"-style ID.
func idNum(id string) (int, bool) {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) {
		return 0, false
	}
	n, err := strconv.Atoi(id[i:])
	return n, err == nil
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
