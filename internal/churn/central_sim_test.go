package churn

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// The differential property suite for the central epoch path: every
// timeline here is built twice — once seeding each epoch from one
// fpss.ComputeCentral of its graph, and once with simulateOnly pinning
// the protocol-simulation oracle — and the two must agree
// byte-for-byte on the honest construction tables of every epoch. The
// simulation path is permanent: it is the oracle these tests (and any
// future central optimisation) are judged against.
//
// The grid deliberately spans every topology family, several churn
// mixes (join-heavy, leave-heavy, redraw-heavy, long) and the loss and
// shards failure axes. Loss-enabled specs exercise the gating side of
// the contract — the central path must stand down and defer to the
// simulation — while shards-enabled specs confirm the settlement axis
// is orthogonal to how the tables were derived.

// diffSpec is one cell of the differential grid.
type diffSpec struct {
	name string
	sp   scenario.Spec
}

// diffSpecs enumerates the grid: families × churn mixes × axes, plus
// extra seeds on the reliable axis. Well over 100 timelines.
func diffSpecs() []diffSpec {
	type fam struct {
		family scenario.Family
		n      int
	}
	families := []fam{
		{scenario.Figure1, 0}, // fixed 6-node worked example
		{scenario.Clique, 8},
		{scenario.Ring, 8},
		{scenario.RingChords, 8},
		{scenario.Random, 8},
		{scenario.PrefAttach, 8},
		{scenario.Waxman, 8},
		{scenario.Torus, 9}, // 3×3 grid
	}
	mixes := []struct {
		name string
		ch   scenario.Churn
	}{
		{"mix=balanced", scenario.Churn{Epochs: 3, Joins: 1, Leaves: 1}},
		{"mix=growing", scenario.Churn{Epochs: 4, Joins: 2, Leaves: 1, RedrawFraction: 0.5}},
		{"mix=shrinking", scenario.Churn{Epochs: 3, Joins: 0, Leaves: 2, RedrawFraction: 0.25}},
		{"mix=long", scenario.Churn{Epochs: 5, Joins: 1, Leaves: 1, RedrawFraction: 0.75}},
	}
	axes := []struct {
		name  string
		loss  scenario.Loss
		shard scenario.Shards
		seeds []int64
	}{
		{"axis=reliable", scenario.Loss{}, scenario.Shards{}, []int64{1, 2}},
		{"axis=loss", scenario.Loss{Rate: 0.15, Burst: 2}, scenario.Shards{}, []int64{1}},
		{"axis=shards", scenario.Loss{}, scenario.Shards{K: 2}, []int64{1}},
	}
	var specs []diffSpec
	for _, f := range families {
		for _, mix := range mixes {
			for _, axis := range axes {
				for _, seed := range axis.seeds {
					sp := scenario.Spec{
						Family: f.family,
						N:      f.n,
						Seed:   seed,
						Churn:  mix.ch,
						Loss:   axis.loss,
						Shards: axis.shard,
					}
					name := fmt.Sprintf("%s/n=%d/%s/%s/seed=%d",
						f.family, f.n, mix.name, axis.name, seed)
					specs = append(specs, diffSpec{name, sp})
				}
			}
		}
	}
	return specs
}

// buildPair materializes the same spec on both paths: tl serves honest
// state from the central solution where it may, oracle is pinned to
// the protocol simulation.
func buildPair(t *testing.T, sp scenario.Spec) (tl, oracle *Timeline) {
	t.Helper()
	tl, err := Build(sp)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	oracle, err = Build(sp)
	if err != nil {
		t.Fatalf("Build (oracle): %v", err)
	}
	oracle.simulateOnly()
	return tl, oracle
}

// TestDeltaTimelineMatchesScratch is the core differential property:
// across the whole grid, the central-seeded honest tables of every
// epoch, witness paths and identity tags included, are byte-identical
// to the simulation oracle's. This name and
// TestDeltaReportMatchesScratch's date from the retired delta engine.
// They stay because every timeline is a subtest, and a rename would
// change each subtest's ID.
func TestDeltaTimelineMatchesScratch(t *testing.T) {
	specs := diffSpecs()
	if len(specs) < 100 {
		t.Fatalf("differential grid shrank to %d timelines; want >= 100", len(specs))
	}
	if testing.Short() {
		specs = specs[:24]
	}
	for _, tc := range specs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tl, oracle := buildPair(t, tc.sp)
			if len(tl.Epochs) != len(oracle.Epochs) {
				t.Fatalf("epoch count mismatch: %d vs %d", len(tl.Epochs), len(oracle.Epochs))
			}
			for i, e := range tl.Epochs {
				routing, pricing, err := e.honestTables()
				if err != nil {
					t.Fatalf("epoch %d: honestTables (central): %v", i, err)
				}
				wantR, wantP, err := oracle.Epochs[i].honestTables()
				if err != nil {
					t.Fatalf("epoch %d: honestTables (oracle): %v", i, err)
				}
				if !reflect.DeepEqual(routing, wantR) {
					t.Fatalf("epoch %d: routing tables diverge from the simulation oracle", i)
				}
				if !reflect.DeepEqual(pricing, wantP) {
					t.Fatalf("epoch %d: pricing tables diverge from the simulation oracle", i)
				}
			}
		})
	}
}

// TestDeltaReportMatchesScratch runs the full per-epoch deviation
// search on both paths for a cross-section of the grid and requires
// the entire core.Report — play counts and every violation — to be
// identical. This is the end-to-end guarantee: not just the honest
// tables but every deviation verdict derived from them is unchanged by
// how the epoch state was built.
func TestDeltaReportMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("deviation searches are the slow lane")
	}
	specs := []diffSpec{
		{"figure1/balanced", scenario.Spec{Family: scenario.Figure1, Seed: 1,
			Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1}}},
		{"figure1/redraw", scenario.Spec{Family: scenario.Figure1, Seed: 2,
			Churn: scenario.Churn{Epochs: 3, Joins: 0, Leaves: 0, RedrawFraction: 1}}},
		{"random/balanced", scenario.Spec{Family: scenario.Random, N: 6, Seed: 1,
			Churn: scenario.Churn{Epochs: 3, Joins: 1, Leaves: 1, RedrawFraction: 0.25}}},
		{"random/growing", scenario.Spec{Family: scenario.Random, N: 6, Seed: 2,
			Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 0}}},
		{"ring/shrinking", scenario.Spec{Family: scenario.Ring, N: 7, Seed: 3,
			Churn: scenario.Churn{Epochs: 2, Joins: 0, Leaves: 2}}},
		{"clique/balanced", scenario.Spec{Family: scenario.Clique, N: 6, Seed: 4,
			Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1}}},
		{"prefattach/redraw", scenario.Spec{Family: scenario.PrefAttach, N: 6, Seed: 5,
			Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1, RedrawFraction: 0.5}}},
		{"waxman/balanced", scenario.Spec{Family: scenario.Waxman, N: 6, Seed: 6,
			Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1}}},
		{"random/loss", scenario.Spec{Family: scenario.Random, N: 6, Seed: 7,
			Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1},
			Loss:  scenario.Loss{Rate: 0.15, Burst: 2}}},
		{"random/shards", scenario.Spec{Family: scenario.Random, N: 6, Seed: 8,
			Churn:  scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1},
			Shards: scenario.Shards{K: 2}}},
		{"figure1/shards-crash", scenario.Spec{Family: scenario.Figure1, Seed: 9,
			Churn:  scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1},
			Shards: scenario.Shards{K: 2, Crash: "participant"}}},
		{"ringchords/balanced", scenario.Spec{Family: scenario.RingChords, N: 6, Seed: 10,
			Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1}}},
	}
	for _, variant := range []Variant{Plain, Faithful} {
		variant := variant
		for _, tc := range specs {
			tc := tc
			t.Run(fmt.Sprintf("%s/%s", variant, tc.name), func(t *testing.T) {
				t.Parallel()
				tl, oracle := buildPair(t, tc.sp)
				cfg := core.CheckConfig{PerEpoch: true, Workers: 0}
				got, err := core.CheckFaithfulnessCfg(NewSystem(tl, variant), cfg)
				if err != nil {
					t.Fatalf("check (central): %v", err)
				}
				want, err := core.CheckFaithfulnessCfg(NewSystem(oracle, variant), cfg)
				if err != nil {
					t.Fatalf("check (oracle): %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("reports diverge:\n central: %+v\n oracle:  %+v", got, want)
				}
			})
		}
	}
}

// simulateOnly switches every epoch of the timeline onto the oracle
// path: honest tables and snapshots come from full protocol
// simulations per epoch, the path a lossy epoch always takes. This is
// the permanent differential-testing oracle. Call it before the
// timeline is first played.
func (tl *Timeline) simulateOnly() {
	for _, e := range tl.Epochs {
		e.simOnly = true
	}
}
