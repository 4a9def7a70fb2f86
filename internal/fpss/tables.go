// Package fpss implements the FPSS lowest-cost interdomain-routing
// mechanism (Feigenbaum, Papadimitriou, Sami, Shenker, PODC 2002) that
// the paper's case study (§4) extends: VCG pricing of transit nodes,
// the per-node data structures DATA1–DATA4, a centralized reference
// solver, and the distributed iterative computation over the sim
// substrate.
//
// The paper's faithful extension (checkers, bank, identity tags) lives
// in package faithful; here is the *original* FPSS, which assumes
// obedient computation and message passing — exactly the assumption
// the paper drops. Deviation hooks (Strategy) let the rational package
// exercise that gap.
package fpss

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"reflect"
	"slices"

	"repro/internal/graph"
)

// RouteEntry is one row of DATA2: the lowest-cost path from the owner
// to Dest, with its aggregate transit cost.
type RouteEntry struct {
	Dest graph.NodeID
	Cost graph.Cost
	Path graph.Path // full path, owner first, Dest last
}

// clone returns a deep copy.
func (e RouteEntry) clone() RouteEntry {
	e.Path = e.Path.Clone()
	return e
}

// equal compares cost and path.
func (e RouteEntry) equal(o RouteEntry) bool {
	return e.Cost == o.Cost && e.Path.Equal(o.Path)
}

// RoutingTable is DATA2: dest → route.
type RoutingTable map[graph.NodeID]RouteEntry

// Clone returns a deep copy.
func (t RoutingTable) Clone() RoutingTable {
	out := make(RoutingTable, len(t))
	for k, v := range t {
		out[k] = v.clone()
	}
	return out
}

// Equal reports whether two routing tables are identical.
func (t RoutingTable) Equal(o RoutingTable) bool {
	if len(t) != len(o) {
		return false
	}
	for k, v := range t {
		if w, ok := o[k]; !ok || !v.equal(w) {
			return false
		}
	}
	return true
}

// PriceEntry is one cell of DATA3*: the per-packet payment the owner
// must make to Transit for traffic to Dest, the witness path that
// justifies it (the owner's best route avoiding Transit), and the
// paper's identity tags — the neighbor(s) whose update triggered the
// current value (union on ties), used by [CHECK2]/[BANK2] to expose
// spoofed pricing updates.
type PriceEntry struct {
	Transit graph.NodeID
	Price   graph.Cost
	Avoid   graph.Path     // witness: owner→dest path avoiding Transit
	Tags    []graph.NodeID // sorted trigger set
}

func (e PriceEntry) clone() PriceEntry {
	e.Avoid = e.Avoid.Clone()
	tags := make([]graph.NodeID, len(e.Tags))
	copy(tags, e.Tags)
	e.Tags = tags
	return e
}

// equal compares price, witness and tags.
func (e PriceEntry) equal(o PriceEntry) bool {
	if e.Transit != o.Transit || e.Price != o.Price || !e.Avoid.Equal(o.Avoid) {
		return false
	}
	if len(e.Tags) != len(o.Tags) {
		return false
	}
	for i := range e.Tags {
		if e.Tags[i] != o.Tags[i] {
			return false
		}
	}
	return true
}

// PricingTable is DATA3*: dest → transit → entry.
type PricingTable map[graph.NodeID]map[graph.NodeID]PriceEntry

// Clone returns a deep copy.
func (t PricingTable) Clone() PricingTable {
	out := make(PricingTable, len(t))
	for d, row := range t {
		r := make(map[graph.NodeID]PriceEntry, len(row))
		for k, e := range row {
			r[k] = e.clone()
		}
		out[d] = r
	}
	return out
}

// Equal reports whether two pricing tables are identical, tags
// included (tag divergence is what [BANK2] detects).
func (t PricingTable) Equal(o PricingTable) bool {
	if len(t) != len(o) {
		return false
	}
	for d, row := range t {
		if orow, ok := o[d]; !ok || !rowEqual(row, orow) {
			return false
		}
	}
	return true
}

// rowEqual compares two pricing rows, tags included. Copy-on-write
// tables (see Derivation) share most rows with the tables they
// replace, so a row shared by both sides is equal by identity.
func rowEqual(a, b map[graph.NodeID]PriceEntry) bool {
	if len(a) != len(b) {
		return false
	}
	if reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer() {
		return true
	}
	for k, e := range a {
		if o, ok := b[k]; !ok || !e.equal(o) {
			return false
		}
	}
	return true
}

// CostTable is DATA1: declared per-packet transit cost per node.
type CostTable map[graph.NodeID]graph.Cost

// Clone returns a copy.
func (t CostTable) Clone() CostTable {
	out := make(CostTable, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// PaymentList is DATA4: total owed per transit node by one origin.
type PaymentList map[graph.NodeID]int64

// Clone returns a copy.
func (p PaymentList) Clone() PaymentList {
	out := make(PaymentList, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Total sums all owed payments.
func (p PaymentList) Total() int64 {
	var t int64
	for _, v := range p {
		t += v
	}
	return t
}

// Hash helpers: the bank compares table hashes ("a hash of the entire
// table is sufficient", §4.3 [BANK1]/[BANK2]). Serialization is
// canonical (sorted keys) so equal tables hash equal.

// Hash is a SHA-256 digest of a canonical table serialization.
type Hash [sha256.Size]byte

type sha256Writer struct{ inner hash.Hash }

func newSHA() *sha256Writer { return &sha256Writer{inner: sha256.New()} }

func (w *sha256Writer) writeInt64(v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	_, _ = w.inner.Write(b[:])
}

func (w *sha256Writer) sum() Hash {
	var out Hash
	copy(out[:], w.inner.Sum(nil))
	return out
}

func writeID(h *sha256Writer, id graph.NodeID) { h.writeInt64(int64(id)) }
func writeCost(h *sha256Writer, c graph.Cost)  { h.writeInt64(int64(c)) }
func writePath(h *sha256Writer, p graph.Path) {
	h.writeInt64(int64(len(p)))
	for _, n := range p {
		writeID(h, n)
	}
}

// HashCosts returns the canonical hash of a DATA1 cost table; the
// bank compares these across all nodes at the end of the first
// construction phase ("terminates with common transit cost tables
// [DATA1] across all nodes", §4.3).
func (t CostTable) HashCosts() Hash {
	w := newSHA()
	ids := make([]graph.NodeID, 0, len(t))
	for id := range t {
		ids = append(ids, id)
	}
	sortIDs(ids)
	for _, id := range ids {
		writeID(w, id)
		writeCost(w, t[id])
	}
	return w.sum()
}

// HashRouting returns the canonical hash of a routing table.
func (t RoutingTable) HashRouting() Hash {
	w := newSHA()
	for _, d := range sortedKeys(t) {
		e := t[d]
		writeID(w, d)
		writeCost(w, e.Cost)
		writePath(w, e.Path)
	}
	return w.sum()
}

// HashPricing returns the canonical hash of a pricing table, tags
// included (so [BANK2] sees tag inconsistencies as deviations).
func (t PricingTable) HashPricing() Hash {
	w := newSHA()
	dests := make([]graph.NodeID, 0, len(t))
	for d := range t {
		dests = append(dests, d)
	}
	sortIDs(dests)
	for _, d := range dests {
		writeID(w, d)
		row := t[d]
		ks := make([]graph.NodeID, 0, len(row))
		for k := range row {
			ks = append(ks, k)
		}
		sortIDs(ks)
		for _, k := range ks {
			e := row[k]
			writeID(w, k)
			writeCost(w, e.Price)
			writePath(w, e.Avoid)
			w.writeInt64(int64(len(e.Tags)))
			for _, tag := range e.Tags {
				writeID(w, tag)
			}
		}
	}
	return w.sum()
}

func sortedKeys(t RoutingTable) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []graph.NodeID) {
	slices.Sort(ids)
}
