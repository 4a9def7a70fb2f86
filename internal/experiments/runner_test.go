package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestRegistryHasAllThirteen(t *testing.T) {
	exps := Experiments()
	if len(exps) != 13 {
		t.Fatalf("registered experiments = %d, want 13", len(exps))
	}
	for i, e := range exps {
		want := fmt.Sprintf("E%d", i+1)
		if e.ID != want {
			t.Errorf("canonical order broken at %d: got %s, want %s", i, e.ID, want)
		}
		if e.Gen == nil {
			t.Errorf("%s has no generator", e.ID)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, id := range []string{"E4", "e4", "E12", "e12"} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("Lookup(E99) should fail")
	}
}

func TestMatchFiltersByRegexp(t *testing.T) {
	cases := []struct {
		pattern string
		want    []string
	}{
		{"", []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}},
		{"E1", []string{"E1"}}, // whole-ID anchoring: E10–E13 excluded
		{"e1[0-3]", []string{"E10", "E11", "E12", "E13"}},
		{"E2|E7", []string{"E2", "E7"}},
		{"E99", nil},
	}
	for _, c := range cases {
		got, err := Match(c.pattern)
		if err != nil {
			t.Fatalf("Match(%q): %v", c.pattern, err)
		}
		ids := make([]string, 0, len(got))
		for _, e := range got {
			ids = append(ids, e.ID)
		}
		if !reflect.DeepEqual(ids, c.want) && !(len(ids) == 0 && len(c.want) == 0) {
			t.Errorf("Match(%q) = %v, want %v", c.pattern, ids, c.want)
		}
	}
	if _, err := Match("e[("); err == nil {
		t.Error("invalid regexp should error")
	}
}

// fastSubset is the set of non-Slow experiments with sweeps shrunk so
// the whole slice regenerates in ~100ms — cheap enough for the
// repeated determinism checks below. The full-default byte-identical
// comparison lives in cmd/benchtab's slow-lane test.
func fastSubset(t *testing.T) []Experiment {
	t.Helper()
	var out []Experiment
	for _, e := range Experiments() {
		if e.Slow {
			continue
		}
		if len(e.Params.Sizes) > 2 {
			e.Params.Sizes = e.Params.Sizes[:2]
		}
		if e.Params.Trials > 5 {
			e.Params.Trials = 5
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		t.Fatal("no fast experiments registered")
	}
	return out
}

func TestRunnerParallelMatchesSequential(t *testing.T) {
	exps := fastSubset(t)
	seq, err := Runner{Workers: 1}.Run(exps)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Runner{Workers: 8}.Run(exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("table counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("%s: parallel table differs from sequential\nseq: %+v\npar: %+v",
				exps[i].ID, seq[i], par[i])
		}
	}
}

func TestRunnerPreservesInputOrder(t *testing.T) {
	exps := fastSubset(t)
	// Reverse the subset: output order must follow input order, not
	// canonical registry order or completion order.
	rev := make([]Experiment, len(exps))
	for i, e := range exps {
		rev[len(exps)-1-i] = e
	}
	tables, err := Runner{Workers: 4}.Run(rev)
	if err != nil {
		t.Fatal(err)
	}
	for i, tbl := range tables {
		if tbl.ID != rev[i].ID {
			t.Errorf("slot %d: got table %s, want %s", i, tbl.ID, rev[i].ID)
		}
	}
}

func TestRunnerErrorPropagation(t *testing.T) {
	boom := errors.New("generator exploded")
	ok := Experiment{ID: "OK", Gen: func(Params) (*Table, error) {
		return &Table{ID: "OK"}, nil
	}}
	bad := func(id string) Experiment {
		return Experiment{ID: id, Gen: func(Params) (*Table, error) { return nil, boom }}
	}
	for _, workers := range []int{1, 4} {
		// The earliest failing experiment wins, independent of
		// scheduling, and the error is wrapped with its ID.
		_, err := Runner{Workers: workers}.Run([]Experiment{ok, bad("BAD1"), ok, bad("BAD2")})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: error chain lost the cause: %v", workers, err)
		}
		if got := err.Error(); got != "BAD1: generator exploded" {
			t.Errorf("workers=%d: error = %q, want BAD1's", workers, got)
		}
	}
}

func TestRunnerWorkerCountsAllAgree(t *testing.T) {
	exps := fastSubset(t)
	base, err := Runner{Workers: 1}.Run(exps)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 16} {
		got, err := Runner{Workers: workers}.Run(exps)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: tables differ from sequential", workers)
		}
	}
}

func TestGenerateFillsDefaultsForZeroFields(t *testing.T) {
	exp, ok := Lookup("E8")
	if !ok {
		t.Fatal("E8 not registered")
	}
	// Zero Trials must fall back to the registered default (40), not
	// run an empty sweep that divides by zero.
	tbl, err := exp.Generate(Params{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows[0][1]; got != "40" {
		t.Errorf("trials cell = %q, want registered default 40", got)
	}
	for _, row := range tbl.Rows {
		if row[3] == "NaN" {
			t.Errorf("zero-trials division leaked: %v", row)
		}
	}
}

func TestRegistryDefaultsImmutable(t *testing.T) {
	exp, _ := Lookup("E4")
	if len(exp.Params.Sizes) == 0 {
		t.Fatal("E4 has no default sizes")
	}
	exp.Params.Sizes[0] = 9999 // must write to a copy, not the registry
	again, _ := Lookup("E4")
	if again.Params.Sizes[0] == 9999 {
		t.Error("mutating a looked-up Params corrupted the registry defaults")
	}
}

// Lookup finds an experiment by ID (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[strings.ToLower(id)]
	e.Params = e.Params.clone()
	return e, ok
}
