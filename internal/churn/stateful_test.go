package churn

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestStatefulChurnMatchesRunOracle runs the full churn grid — both
// variants, whole-run and per-epoch, several worker counts — through
// the engine's pooled play contexts (per-epoch truthful snapshots,
// exec-only overlays for the boundary exit scams, arena-backed epoch
// plays) and demands byte-identical reports against the sequential
// search with a fresh context per play. The faithful side repeats with
// base-utility pruning and a full pruned replay, which must fire on
// the exec-only boundary deviations. Run under -race, this also
// certifies the timeline caches as data-race-free.
func TestStatefulChurnMatchesRunOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("deviation search")
	}
	specs := []scenario.Spec{
		{Family: scenario.Random, N: 5, Seed: 4,
			Churn: scenario.Churn{Epochs: 3, Joins: 1, Leaves: 1, RedrawFraction: 0.5}},
		{Family: scenario.Random, N: 5, Seed: 2,
			Churn: scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1}},
	}
	workerCounts := [][]int{{1, 3, 6}, {2, 4, 7}}
	for si, sp := range specs {
		tl := mustBuild(t, sp)
		for _, variant := range []Variant{Plain, Faithful} {
			for _, perEpoch := range []bool{false, true} {
				oracle, err := core.CheckFaithfulnessCfg(NewSystem(tl, variant),
					core.CheckConfig{PerEpoch: perEpoch, FreshContexts: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range workerCounts[si] {
					got, err := core.CheckFaithfulnessCfg(NewSystem(tl, variant),
						core.CheckConfig{PerEpoch: perEpoch, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(oracle, got) {
						t.Errorf("seed %d %v perEpoch=%v workers=%d: report diverges\noracle: %+v\ngot:    %+v",
							sp.Seed, variant, perEpoch, workers, oracle, got)
					}
				}
				pruned, err := core.CheckFaithfulnessCfg(NewSystem(tl, variant), core.CheckConfig{
					PerEpoch:     perEpoch,
					Workers:      3,
					Prune:        true,
					VerifyPruned: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(oracle.Violations, pruned.Violations) {
					t.Errorf("seed %d %v perEpoch=%v: pruned violations diverge\noracle: %+v\ngot:    %+v",
						sp.Seed, variant, perEpoch, oracle.Violations, pruned.Violations)
				}
				if pruned.Total() != oracle.Checked {
					t.Errorf("seed %d %v perEpoch=%v: pruned grid %d+%d != oracle grid %d",
						sp.Seed, variant, perEpoch, pruned.Checked, pruned.Pruned, oracle.Checked)
				}
				switch variant {
				case Plain:
					// Exit scams profit under plain FPSS — the engine must
					// not claim a bound there.
					if pruned.Pruned != 0 {
						t.Errorf("plain churn pruned %d plays; the plain variant has no sound bound", pruned.Pruned)
					}
				case Faithful:
					if pruned.Pruned == 0 {
						t.Errorf("faithful churn pruned nothing; exec-only boundary deviations should be bounded")
					}
				}
			}
		}
	}
}
