package bank

import (
	"strings"
	"testing"

	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/sign"
)

func testTopology() map[graph.NodeID][]graph.NodeID {
	// Triangle: everyone checks everyone else.
	return map[graph.NodeID][]graph.NodeID{
		0: {1, 2},
		1: {0, 2},
		2: {0, 1},
	}
}

func setup(t *testing.T) (*Bank, map[graph.NodeID]*sign.Signer) {
	t.Helper()
	auth := sign.NewAuthority()
	signers := make(map[graph.NodeID]*sign.Signer)
	topo := testTopology()
	for id := range topo {
		s, err := auth.Register(SignerID(id))
		if err != nil {
			t.Fatal(err)
		}
		signers[id] = s
	}
	return New(auth, topo), signers
}

func submit(t *testing.T, b *Bank, s *sign.Signer, rep StateReport) {
	t.Helper()
	env, _ := EncodeReport(s, rep)
	if err := b.Submit(env); err != nil {
		t.Fatal(err)
	}
}

// consistentReports builds an all-honest report set: every node has
// the same DATA1 hash and every checker's mirror matches the
// principal's own hashes.
func consistentReports() map[graph.NodeID]StateReport {
	costs := fpss.CostTable{0: 1, 1: 2, 2: 3}
	ch := costs.HashCosts()
	own := map[graph.NodeID]MirrorReport{
		0: {RoutingHash: fpss.Hash{1}, PricingHash: fpss.Hash{10}},
		1: {RoutingHash: fpss.Hash{2}, PricingHash: fpss.Hash{20}},
		2: {RoutingHash: fpss.Hash{3}, PricingHash: fpss.Hash{30}},
	}
	out := make(map[graph.NodeID]StateReport)
	topo := testTopology()
	for id := range topo {
		mirrors := make(map[graph.NodeID]MirrorReport)
		for _, p := range topo[id] {
			mirrors[p] = own[p]
		}
		out[id] = StateReport{
			Node:        id,
			CostsHash:   ch,
			RoutingHash: own[id].RoutingHash,
			PricingHash: own[id].PricingHash,
			Mirrors:     mirrors,
		}
	}
	return out
}

func TestHonestReportsGreenLight(t *testing.T) {
	b, signers := setup(t)
	for id, rep := range consistentReports() {
		submit(t, b, signers[id], rep)
	}
	if !b.Complete() {
		t.Fatal("all reports submitted but Complete is false")
	}
	if dets := b.VerifyConstruction(); len(dets) != 0 {
		t.Errorf("honest run detected: %v", dets)
	}
}

func TestMissingReportBlocks(t *testing.T) {
	b, signers := setup(t)
	reps := consistentReports()
	submit(t, b, signers[0], reps[0])
	if b.Complete() {
		t.Error("incomplete submissions reported complete")
	}
	dets := b.VerifyConstruction()
	if len(dets) != 1 || dets[0].Principal != -1 {
		t.Errorf("dets = %v, want one unattributed detection", dets)
	}
}

func TestDivergentDATA1Detected(t *testing.T) {
	b, signers := setup(t)
	reps := consistentReports()
	r := reps[2]
	r.CostsHash = fpss.Hash{99}
	reps[2] = r
	for id, rep := range reps {
		submit(t, b, signers[id], rep)
	}
	dets := b.VerifyConstruction()
	found := false
	for _, d := range dets {
		if d.Principal == -1 && strings.Contains(d.Reason, "DATA1") {
			found = true
		}
	}
	if !found {
		t.Errorf("divergent DATA1 not detected: %v", dets)
	}
}

func TestRoutingMismatchAttributedToPrincipal(t *testing.T) {
	b, signers := setup(t)
	reps := consistentReports()
	r := reps[1]
	r.RoutingHash = fpss.Hash{0xAA} // node 1 lies about (or corrupted) its DATA2
	reps[1] = r
	for id, rep := range reps {
		submit(t, b, signers[id], rep)
	}
	dets := b.VerifyConstruction()
	if len(dets) == 0 {
		t.Fatal("mismatch not detected")
	}
	for _, d := range dets {
		if d.Principal != 1 {
			t.Errorf("detection attributed to %d, want 1: %v", d.Principal, d)
		}
		if !strings.Contains(d.Reason, "[BANK1]") {
			t.Errorf("reason should cite BANK1: %v", d)
		}
	}
}

func TestPricingMismatchBANK2(t *testing.T) {
	b, signers := setup(t)
	reps := consistentReports()
	r := reps[0]
	m := r.Mirrors[2]
	m.PricingHash = fpss.Hash{0xBB} // checker 0's mirror of principal 2 diverges
	r.Mirrors[2] = m
	reps[0] = r
	for id, rep := range reps {
		submit(t, b, signers[id], rep)
	}
	dets := b.VerifyConstruction()
	if len(dets) != 1 || dets[0].Principal != 2 || !strings.Contains(dets[0].Reason, "[BANK2]") {
		t.Errorf("dets = %v, want one BANK2 detection for principal 2", dets)
	}
}

func TestFlagsSurface(t *testing.T) {
	b, signers := setup(t)
	reps := consistentReports()
	r := reps[0]
	r.Flags = []Flag{{Reporter: 0, Principal: 1, Reason: "spoofed forward"}}
	reps[0] = r
	for id, rep := range reps {
		submit(t, b, signers[id], rep)
	}
	dets := b.VerifyConstruction()
	if len(dets) != 1 || dets[0].Principal != 1 || !strings.Contains(dets[0].Reason, "spoofed forward") {
		t.Errorf("dets = %v", dets)
	}
}

func TestSubmitRejectsTamperedEnvelope(t *testing.T) {
	b, signers := setup(t)
	reps := consistentReports()
	env, _ := EncodeReport(signers[0], reps[0])
	env.Payload[0] ^= 1
	if err := b.Submit(env); err == nil {
		t.Error("tampered envelope accepted")
	}
}

func TestSubmitRejectsWrongSigner(t *testing.T) {
	b, signers := setup(t)
	reps := consistentReports()
	// Node 1 signs a report claiming to be node 0.
	env, _ := EncodeReport(signers[1], reps[0])
	if err := b.Submit(env); err == nil {
		t.Error("misattributed report accepted")
	}
}

func TestReusePooledBank(t *testing.T) {
	b, signers := setup(t)
	for id, rep := range consistentReports() {
		submit(t, b, signers[id], rep)
	}
	// Reuse must behave like New on both a used bank and a zero value
	// (what a sync.Pool hands out first).
	fresh, signers2 := setup(t)
	for _, reused := range []*Bank{b, new(Bank)} {
		reused.Reuse(fresh.authority, fresh.neighbors)
		if reused.Complete() {
			t.Fatal("reused bank carries stale reports")
		}
		for id, rep := range consistentReports() {
			submit(t, reused, signers2[id], rep)
		}
		if !reused.Complete() {
			t.Fatal("reused bank incomplete after full submission")
		}
		if det := reused.VerifyConstruction(); len(det) != 0 {
			t.Fatalf("reused bank detections: %v", det)
		}
	}
}

func TestAuditPaymentsHonest(t *testing.T) {
	b, _ := setup(t)
	obl := map[graph.NodeID]fpss.PaymentList{
		0: {1: 10, 2: 5},
		1: {},
		2: {1: 3},
	}
	findings := b.AuditPayments(obl, obl, 1)
	if len(findings) != 0 {
		t.Errorf("honest audit found %v", findings)
	}
}

func TestAuditPaymentsUnderreport(t *testing.T) {
	b, _ := setup(t)
	obl := map[graph.NodeID]fpss.PaymentList{0: {1: 10, 2: 5}, 1: {}, 2: {}}
	rep := map[graph.NodeID]fpss.PaymentList{0: {1: 4}, 1: {}, 2: {}}
	findings := b.AuditPayments(obl, rep, 2)
	if len(findings) != 1 {
		t.Fatalf("findings = %v", findings)
	}
	f := findings[0]
	if f.Node != 0 || f.Shortfall != 11 {
		t.Errorf("finding = %+v, want node 0 shortfall 11", f)
	}
	// Penalty is ε above the deviation magnitude: |10-4| + |5-0| + 2 = 13.
	if f.Penalty != 13 {
		t.Errorf("penalty = %d, want 13", f.Penalty)
	}
}

func TestAuditPaymentsOverreportAlsoPenalized(t *testing.T) {
	b, _ := setup(t)
	obl := map[graph.NodeID]fpss.PaymentList{0: {}, 1: {}, 2: {}}
	rep := map[graph.NodeID]fpss.PaymentList{0: {1: 7}, 1: {}, 2: {}}
	findings := b.AuditPayments(obl, rep, 1)
	if len(findings) != 1 || findings[0].Penalty != 8 {
		t.Errorf("findings = %v, want penalty 8", findings)
	}
	if findings[0].Shortfall != -7 {
		t.Errorf("shortfall = %d, want -7", findings[0].Shortfall)
	}
}
