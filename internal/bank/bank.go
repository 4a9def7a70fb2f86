// Package bank implements the trusted, obedient accounting entity of
// the paper's extended FPSS specification (§4.2): it never performs
// the distributed mechanism computation itself, but compares
// state-information reported by principals and checkers at phase
// checkpoints, withholds the "green light" (forcing a restart) on any
// construction-phase deviation, and levies a monetary penalty
// "epsilon-above the attempted deviation" on execution-phase fraud.
//
// All node↔bank communication is signed with acknowledgments (package
// sign), giving communication compatibility on this one channel.
package bank

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/sign"
)

// Flag is a direct observation of a deviation by a checker node (e.g.
// a spoofed forward or an advertisement that contradicts the mirror).
type Flag struct {
	Reporter  graph.NodeID `json:"reporter"`
	Principal graph.NodeID `json:"principal"`
	Reason    string       `json:"reason"`
}

// MirrorReport carries a checker's view of one principal's tables.
type MirrorReport struct {
	RoutingHash fpss.Hash `json:"routingHash"`
	PricingHash fpss.Hash `json:"pricingHash"`
}

// StateReport is what each node sends (signed) at a checkpoint: hashes
// of its own DATA1/DATA2/DATA3*, its mirrors of every principal it
// checks, and any flags it raised. "A hash of the entire table is
// sufficient" (§4.3 [BANK1]). The node signs the binary encoding of
// codec.go; the struct tags define the JSON form whose length E4
// counts as the report's size.
type StateReport struct {
	Node        graph.NodeID                  `json:"node"`
	CostsHash   fpss.Hash                     `json:"costsHash"`
	RoutingHash fpss.Hash                     `json:"routingHash"`
	PricingHash fpss.Hash                     `json:"pricingHash"`
	Mirrors     map[graph.NodeID]MirrorReport `json:"mirrors"`
	Flags       []Flag                        `json:"flags"`
}

// Detection is the bank's verdict that some principal's cluster is
// inconsistent. Principal == -1 denotes an unattributed network-wide
// inconsistency (e.g. divergent DATA1).
type Detection struct {
	Principal graph.NodeID
	Reason    string
}

func (d Detection) String() string {
	return fmt.Sprintf("principal %d: %s", d.Principal, d.Reason)
}

// Bank is the checkpointing entity. It is configured with the
// (semi-private, registration-time) 1-hop topology so it knows which
// nodes check which principal.
type Bank struct {
	authority *sign.Authority
	neighbors map[graph.NodeID][]graph.NodeID
	reports   map[graph.NodeID]StateReport
}

// New creates a bank for the given neighborhood structure, verifying
// node reports against the supplied signing authority. The neighbors
// map is retained as a shared read-only view — deviation searches
// build one per scenario and hand it to every run's bank — so the
// caller must not mutate it for the bank's lifetime.
func New(authority *sign.Authority, neighbors map[graph.NodeID][]graph.NodeID) *Bank {
	return &Bank{
		authority: authority,
		neighbors: neighbors,
		reports:   make(map[graph.NodeID]StateReport),
	}
}

// Nodes returns the sorted registered node set.
func (b *Bank) Nodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(b.neighbors))
	for id := range b.neighbors {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Submit verifies a signed report envelope and stores the report.
// Tampered or replayed envelopes are rejected — the signing layer is
// what makes node↔bank communication compatible — and so are payloads
// that are not exactly one binary report (see codec.go).
func (b *Bank) Submit(env sign.Envelope) error {
	if _, err := b.authority.Verify(env); err != nil {
		return fmt.Errorf("bank: reject report: %w", err)
	}
	rep, err := decodeReport(env.Payload)
	if err != nil {
		return fmt.Errorf("bank: malformed report: %w", err)
	}
	if SignerID(rep.Node) != env.Signer {
		return fmt.Errorf("bank: report for node %d signed by %q", rep.Node, env.Signer)
	}
	b.reports[rep.Node] = rep
	return nil
}

// SignerID returns the canonical signing identity for a node.
func SignerID(id graph.NodeID) string { return "node-" + strconv.Itoa(int(id)) }

// EncodeReport signs the binary encoding of a report. It also returns
// the length the report has in its JSON form, which is what E4's
// byte column counts.
func EncodeReport(s *sign.Signer, rep StateReport) (env sign.Envelope, jsonBytes int) {
	return s.Sign(appendReport(make([]byte, 0, encodedCap(rep)), rep)), jsonLen(rep)
}

// Complete reports whether every registered node has submitted.
func (b *Bank) Complete() bool {
	for id := range b.neighbors {
		if _, ok := b.reports[id]; !ok {
			return false
		}
	}
	return true
}

// Reuse re-targets a pooled Bank at a new run: fresh authority and
// neighborhood, reports cleared in place. Equivalent to New but
// recycles the report map storage — the deviation search constructs a
// bank per (node, deviation) run, so this is a hot path.
func (b *Bank) Reuse(authority *sign.Authority, neighbors map[graph.NodeID][]graph.NodeID) {
	b.authority = authority
	b.neighbors = neighbors
	if b.reports == nil {
		b.reports = make(map[graph.NodeID]StateReport)
	} else {
		clear(b.reports)
	}
}

// VerifyConstruction runs the construction-phase checkpoints:
// common DATA1 across all nodes, then [BANK1] (routing) and [BANK2]
// (pricing) principal-versus-checker comparisons, plus any checker
// flags. An empty result green-lights the execution phase; otherwise
// the phase must restart.
func (b *Bank) VerifyConstruction() []Detection {
	var out []Detection
	if !b.Complete() {
		out = append(out, Detection{Principal: -1, Reason: "missing state reports"})
		return out
	}
	// DATA1 must be common across all nodes.
	var first *fpss.Hash
	for _, id := range b.Nodes() {
		h := b.reports[id].CostsHash
		if first == nil {
			first = &h
			continue
		}
		if h != *first {
			out = append(out, Detection{Principal: -1, Reason: "divergent DATA1 transit-cost tables"})
			break
		}
	}
	// [BANK1]/[BANK2]: each principal against each of its checkers.
	for _, p := range b.Nodes() {
		pr := b.reports[p]
		for _, checker := range b.neighbors[p] {
			cr, ok := b.reports[checker]
			if !ok {
				continue
			}
			m, ok := cr.Mirrors[p]
			if !ok {
				out = append(out, Detection{Principal: p, Reason: fmt.Sprintf("checker %d has no mirror", checker)})
				continue
			}
			if m.RoutingHash != pr.RoutingHash {
				out = append(out, Detection{Principal: p, Reason: fmt.Sprintf("[BANK1] routing mismatch vs checker %d", checker)})
			}
			if m.PricingHash != pr.PricingHash {
				out = append(out, Detection{Principal: p, Reason: fmt.Sprintf("[BANK2] pricing mismatch vs checker %d", checker)})
			}
		}
	}
	// Direct checker observations.
	for _, id := range b.Nodes() {
		for _, f := range b.reports[id].Flags {
			out = append(out, Detection{Principal: f.Principal, Reason: fmt.Sprintf("flagged by %d: %s", f.Reporter, f.Reason)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Principal != out[j].Principal {
			return out[i].Principal < out[j].Principal
		}
		return out[i].Reason < out[j].Reason
	})
	return out
}

// Epsilon is the ε of §4.2's penalty, "a well-defined monetary unit
// that is epsilon-above the attempted deviation". The faithful
// protocol's payment audit and the sharded settlement's per-flag fine
// both levy it.
const Epsilon int64 = 1

// PaymentFinding records an execution-phase audit result for one node.
type PaymentFinding struct {
	Node graph.NodeID
	// Shortfall = owed − reported (positive when underreporting).
	Shortfall int64
	// Penalty is the ε-above charge levied on any misreport.
	Penalty int64
}

// AuditPayments compares reported DATA4 lists against the obligations
// implied by the certified pricing tables and the observed traffic.
// Any discrepancy (in either direction) draws a penalty epsilon above
// the attempted deviation (§4.2: "a well-defined monetary unit that is
// epsilon-above the attempted deviation").
func (b *Bank) AuditPayments(obligations, reported map[graph.NodeID]fpss.PaymentList, epsilon int64) []PaymentFinding {
	var out []PaymentFinding
	for _, id := range b.Nodes() {
		owed := obligations[id]
		rep := reported[id]
		diff := diffMagnitude(owed, rep)
		if diff == 0 {
			continue
		}
		out = append(out, PaymentFinding{
			Node:      id,
			Shortfall: owed.Total() - rep.Total(),
			Penalty:   diff + epsilon,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// diffMagnitude sums |owed[k] − reported[k]| over all transit nodes.
func diffMagnitude(owed, rep fpss.PaymentList) int64 {
	var total int64
	for k, v := range owed {
		d := v - rep[k]
		if d < 0 {
			d = -d
		}
		total += d
	}
	for k, v := range rep {
		if _, ok := owed[k]; !ok {
			if v < 0 {
				total += -v
			} else {
				total += v
			}
		}
	}
	return total
}
