package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// genTable fetches an experiment from the registry and generates its
// table, optionally mutating a copy of its registered Params first —
// tests never call generator functions by name.
func genTable(t *testing.T, id string, mutate func(*Params)) *Table {
	t.Helper()
	exp, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	p := exp.Params
	if mutate != nil {
		mutate(&p)
	}
	tbl, err := exp.Gen(p)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestE1MatchesPaperQuotes(t *testing.T) {
	tbl := genTable(t, "E1", nil)
	want := map[string][2]string{
		"X→Z": {"2", "X-D-C-Z"},
		"Z→D": {"1", ""},
		"B→D": {"0", ""},
	}
	for _, row := range tbl.Rows {
		if w, ok := want[row[0]]; ok {
			if row[1] != w[0] {
				t.Errorf("%s cost = %s, want %s", row[0], row[1], w[0])
			}
			if w[1] != "" && row[2] != w[1] {
				t.Errorf("%s path = %s, want %s", row[0], row[2], w[1])
			}
		}
		if row[3] != "true" {
			t.Errorf("%s: distributed disagrees with central", row[0])
		}
	}
}

func TestE2NaiveManipulableVCGNot(t *testing.T) {
	tbl := genTable(t, "E2", nil)
	var naiveTruth, vcgTruth int64
	var naiveBest, vcgBest int64
	naiveBest, vcgBest = -1<<62, -1<<62
	for _, row := range tbl.Rows {
		declared, _ := strconv.ParseInt(row[0], 10, 64)
		naive, _ := strconv.ParseInt(row[1], 10, 64)
		vcg, _ := strconv.ParseInt(row[2], 10, 64)
		if declared == 1 { // truth
			naiveTruth, vcgTruth = naive, vcg
		}
		if naive > naiveBest {
			naiveBest = naive
		}
		if vcg > vcgBest {
			vcgBest = vcg
		}
	}
	if naiveBest <= naiveTruth {
		t.Errorf("naive pricing should admit a profitable lie: truth %d, best %d", naiveTruth, naiveBest)
	}
	if vcgBest > vcgTruth {
		t.Errorf("VCG must keep truth optimal: truth %d, best %d", vcgTruth, vcgBest)
	}
}

func TestE3AllCaughtNoneProfitable(t *testing.T) {
	if testing.Short() {
		t.Skip("deviation x node sweep is the slow lane")
	}
	tbl := genTable(t, "E3", nil)
	if len(tbl.Rows) == 0 {
		t.Fatal("no deviations tested")
	}
	for _, row := range tbl.Rows {
		parts := strings.Split(row[3], "/")
		if parts[0] != parts[1] {
			t.Errorf("deviation %s not fully caught/neutralized: %s", row[0], row[3])
		}
		gains := strings.Split(row[4], "/")
		if gains[0] != "0" {
			t.Errorf("deviation %s profitable somewhere: %s", row[0], row[4])
		}
	}
}

func TestE4OverheadBounded(t *testing.T) {
	tbl := genTable(t, "E4", func(p *Params) { p.Sizes = []int{6, 10}; p.Seed = 1 })
	for _, row := range tbl.Rows {
		ratio, _ := strconv.ParseFloat(row[4], 64)
		if ratio < 1.0 {
			t.Errorf("n=%s: faithful cannot use fewer messages than plain (ratio %s)", row[0], row[4])
		}
		deg, _ := strconv.ParseFloat(row[1], 64)
		if ratio > 4*deg {
			t.Errorf("n=%s: overhead ratio %s far exceeds degree bound %f", row[0], row[4], deg)
		}
	}
}

func TestE5BFTCostlier(t *testing.T) {
	tbl := genTable(t, "E5", func(p *Params) { p.Seed = 2 })
	for _, row := range tbl.Rows {
		ratio, _ := strconv.ParseFloat(row[6], 64)
		if ratio <= 1.0 {
			t.Errorf("n=%s: BFT should cost more messages than catch-and-punish (ratio %s)", row[0], row[6])
		}
	}
}

func TestE6FaithfulCleanPlainDirty(t *testing.T) {
	if testing.Short() {
		t.Skip("full faithfulness search is the slow lane")
	}
	tbl := genTable(t, "E6", func(p *Params) { p.Trials = 2; p.Seed = 3 })
	for _, row := range tbl.Rows {
		if row[3] == "0" {
			t.Errorf("trial %s: plain FPSS had no violations", row[0])
		}
		if row[5] != "0" {
			t.Errorf("trial %s: faithful spec violated %s times", row[0], row[5])
		}
		if row[6] != "✓✓✓" {
			t.Errorf("trial %s: faithful IC/CC/AC = %s", row[0], row[6])
		}
	}
}

func TestE7ReductionGrows(t *testing.T) {
	tbl := genTable(t, "E7", nil)
	var prev int64
	for _, row := range tbl.Rows {
		r, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			t.Fatalf("ratio %q: %v", row[4], err)
		}
		if r <= prev {
			t.Errorf("reduction factor should grow with deviation points: %v", row)
		}
		prev = r
	}
}

func TestE8FaithfulAlwaysCorrect(t *testing.T) {
	tbl := genTable(t, "E8", func(p *Params) { p.Trials = 25; p.Seed = 4 })
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	naiveRate, _ := strconv.ParseFloat(tbl.Rows[0][3], 64)
	faithRate, _ := strconv.ParseFloat(tbl.Rows[1][3], 64)
	if faithRate != 1.0 {
		t.Errorf("faithful correct rate = %f, want 1.0", faithRate)
	}
	if naiveRate >= faithRate {
		t.Errorf("naive rate %f should be below faithful %f", naiveRate, faithRate)
	}
}

func TestE9MessagesGrow(t *testing.T) {
	tbl := genTable(t, "E9", func(p *Params) { p.Sizes = []int{6, 12, 18}; p.Seed = 5 })
	var prev int64
	for _, row := range tbl.Rows {
		msgs, _ := strconv.ParseInt(row[4], 10, 64)
		if msgs <= prev {
			t.Errorf("phase-2 messages should grow with n: %v", row)
		}
		prev = msgs
	}
}

func TestE10FraudStrictlyUnprofitable(t *testing.T) {
	tbl := genTable(t, "E10", nil)
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows[1:] { // skip truthful
		net, _ := strconv.ParseInt(row[3], 10, 64)
		if net >= 0 {
			t.Errorf("strategy %q nets %d, want strictly negative", row[0], net)
		}
	}
}

func TestRender(t *testing.T) {
	s := Render(genTable(t, "E7", nil))
	if !strings.Contains(s, "E7") || !strings.Contains(s, "monolithic") {
		t.Errorf("render missing content:\n%s", s)
	}
}
