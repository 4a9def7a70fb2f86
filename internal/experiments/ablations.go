package experiments

import (
	"fmt"

	"repro/internal/faithful"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// E11CheckerAblation ablates the checker assignment: §4.2 insists
// "every neighbor of a node is assigned as a checker for that node."
// Restricting the assignment to k < degree neighbors opens escapes —
// a principal can cheat toward the unchecked side.
func E11CheckerAblation(Params) (*Table, error) {
	t := &Table{
		ID:         "E11",
		Title:      "Ablation: checker assignment size vs deviation containment",
		PaperClaim: "the full every-neighbor assignment is load-bearing; the paper calls it 'very important'",
		Headers:    []string{"checkers per principal", "plays", "caught or neutralized", "profitable"},
	}
	for _, limit := range []int{0, 2, 1} {
		sc, err := figure1Scenario(limit)
		if err != nil {
			return nil, err
		}
		_, grid, err := detectionGrid(sc.FaithfulSystem())
		if err != nil {
			return nil, err
		}
		plays := len(grid)
		caught, profitable := tally(grid)
		label := "all neighbors"
		if limit > 0 {
			label = fmt.Sprintf("at most %d", limit)
		}
		t.Rows = append(t.Rows, []string{
			label, itoa(int64(plays)),
			fmt.Sprintf("%d/%d", caught, plays), fmt.Sprintf("%d/%d", profitable, plays),
		})
	}
	t.Notes = "with the full assignment nothing profits; truncated assignments may leave deviations uncaught or profitable"
	return t, nil
}

// E12Failstop reproduces the §5 discussion: the rational-manipulation
// remedy punishes *crash* failures too — a failstop node looks like a
// deviator, the bank withholds the green light, and everyone (not just
// the crashed node) pays the non-progress penalty. Handling mixed
// failure models is the paper's stated open problem.
func E12Failstop(Params) (*Table, error) {
	sc, err := scenario.Spec{Family: scenario.Figure1}.Compile()
	if err != nil {
		return nil, err
	}
	g := sc.Graph
	t := &Table{
		ID:         "E12",
		Title:      "Failure-model interplay: failstop node under the faithful protocol",
		PaperClaim: "other failures (general omission, failstop) may cause the system to falsely detect and punish manipulation (§5)",
		Headers:    []string{"crashed node", "green-lit", "detections", "honest nodes punished"},
	}
	for i := 0; i < g.N(); i++ {
		id := graph.NodeID(i)
		cfg := sc.FaithfulConfig()
		// E12 charges crashes only through non-progress, never per
		// stranded packet — keep the pre-scenario accounting.
		cfg.UndeliveredPenalty = 0
		cfg.Strategies = map[graph.NodeID]*faithful.Strategy{id: {SilentFromPhase2: true}}
		res, err := faithful.Run(cfg)
		if err != nil {
			return nil, err
		}
		punished := 0
		for other, u := range res.Utilities {
			if other != id && u < 0 {
				punished++
			}
		}
		t.Rows = append(t.Rows, []string{
			g.Name(id), fmt.Sprintf("%v", res.Completed),
			itoa(int64(len(res.Detections))), fmt.Sprintf("%d/%d", punished, g.N()-1),
		})
	}
	t.Notes = "a crash is indistinguishable from rational withholding: progress stops and honest nodes suffer — the open problem §5 poses"
	return t, nil
}

// E13DamageContainment examines the §5 antisocial angle: how much a
// deviator can hurt *others* (not help itself) under each protocol. In
// plain FPSS corrupted tables silently damage victims' efficiency; in
// the faithful protocol self-interested deviations are contained, but
// a node willing to eat the non-progress penalty can grief everyone —
// faithfulness targets rational nodes, not malicious ones.
func E13DamageContainment(Params) (*Table, error) {
	sc, err := figure1Scenario(0)
	if err != nil {
		return nil, err
	}
	g := sc.Graph
	plainSys, faithSys := sc.Systems()
	plainSt, err := plainSys.Snapshot()
	if err != nil {
		return nil, err
	}
	faithSt, err := faithSys.Snapshot()
	if err != nil {
		return nil, err
	}
	plainBase, faithBase := plainSt.Baseline(), faithSt.Baseline()
	t := &Table{
		ID:         "E13",
		Title:      "Victim damage per deviation: plain vs faithful (completed runs)",
		PaperClaim: "rational-manipulation defenses bound self-interested harm; anti-social/malicious behavior is outside the model (§5)",
		Headers:    []string{"deviation", "worst victim loss (plain)", "worst victim loss (faithful, completed)", "faithful blocked runs"},
	}
	// Each job plays one deviation at one node against *both*
	// protocols; the per-deviation fold (max over victims, blocked
	// count) is order-independent, so the fan-out stays deterministic.
	devs := plainSys.Deviations(0)
	nodes := plainSys.Nodes()
	type damage struct {
		plainLoss, faithLoss int64
		blocked              bool
	}
	results, err := parallelMap(len(devs)*len(nodes), 0, func(i int) (damage, error) {
		dev, node := devs[i/len(nodes)], nodes[i%len(nodes)]
		var d damage
		pOut, err := plainSys.Play(nil, plainSt, node, dev)
		if err != nil {
			return d, err
		}
		for victim, u := range pOut.Utilities {
			if victim == node {
				continue
			}
			if loss := plainBase.Utilities[victim] - u; loss > d.plainLoss {
				d.plainLoss = loss
			}
		}
		fOut, err := faithSys.Play(nil, faithSt, node, dev)
		if err != nil {
			return d, err
		}
		if !fOut.Completed {
			d.blocked = true
			return d, nil
		}
		for victim, u := range fOut.Utilities {
			if victim == node {
				continue
			}
			if loss := faithBase.Utilities[victim] - u; loss > d.faithLoss {
				d.faithLoss = loss
			}
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	for di, dev := range devs {
		worstPlain, worstFaith := int64(0), int64(0)
		blocked := 0
		for ni := range nodes {
			d := results[di*len(nodes)+ni]
			if d.plainLoss > worstPlain {
				worstPlain = d.plainLoss
			}
			if d.blocked {
				blocked++
				continue
			}
			if d.faithLoss > worstFaith {
				worstFaith = d.faithLoss
			}
		}
		t.Rows = append(t.Rows, []string{
			dev.Name(), itoa(worstPlain), itoa(worstFaith), fmt.Sprintf("%d/%d", blocked, g.N()),
		})
	}
	t.Notes = "blocked runs end in non-progress: self-interested nodes never choose them, but a malicious node could — the paper's explicit scope limit"
	return t, nil
}
