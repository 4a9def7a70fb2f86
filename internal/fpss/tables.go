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
	"iter"
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

// RoutingTable is DATA2, indexed by destination: slot j holds the
// owner's route to j and is present iff its Path is non-nil. A table
// has one slot per node its owner knows (see Derivation), so the
// owner's own slot, and the slot of a destination it cannot reach yet,
// are absent. Absent slots are invisible: Get, Len, Equal, the hash
// and Update.Size read present slots only, so neither a table's length
// nor whatever an absent slot holds is part of its content.
type RoutingTable []RouteEntry

// Get returns the route to j and whether it is present.
func (t RoutingTable) Get(j graph.NodeID) (RouteEntry, bool) {
	if uint(j) < uint(len(t)) && t[j].Path != nil {
		return t[j], true
	}
	return RouteEntry{}, false
}

// Len returns the number of present routes.
func (t RoutingTable) Len() int {
	n := 0
	for _, e := range t {
		if e.Path != nil {
			n++
		}
	}
	return n
}

// All yields the present routes in ascending destination order.
func (t RoutingTable) All() iter.Seq2[graph.NodeID, RouteEntry] {
	return func(yield func(graph.NodeID, RouteEntry) bool) {
		for j, e := range t {
			if e.Path != nil && !yield(graph.NodeID(j), e) {
				return
			}
		}
	}
}

// Clone returns a deep copy of the present routes, in a table of the
// same length.
func (t RoutingTable) Clone() RoutingTable {
	out := make(RoutingTable, len(t))
	for j, e := range t {
		if e.Path != nil {
			out[j] = e.clone()
		}
	}
	return out
}

// Equal reports whether two routing tables hold the same routes.
func (t RoutingTable) Equal(o RoutingTable) bool {
	for j := range max(len(t), len(o)) {
		a, aok := t.Get(graph.NodeID(j))
		b, bok := o.Get(graph.NodeID(j))
		if aok != bok || aok && !a.equal(b) {
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

// PricingTable is DATA3*, indexed by destination: row j maps each
// priced transit node on the owner's route to j to its entry, and is
// present iff non-nil. Like a RoutingTable, a table's length and its
// absent rows are not part of its content. The rows stay maps: a route
// prices only its few transit nodes, and callers range a row to sum
// its payments into a PaymentList.
type PricingTable []map[graph.NodeID]PriceEntry

// Row returns the pricing row of destination j, nil when absent.
func (t PricingTable) Row(j graph.NodeID) map[graph.NodeID]PriceEntry {
	if uint(j) < uint(len(t)) {
		return t[j]
	}
	return nil
}

// All yields the present rows in ascending destination order.
func (t PricingTable) All() iter.Seq2[graph.NodeID, map[graph.NodeID]PriceEntry] {
	return func(yield func(graph.NodeID, map[graph.NodeID]PriceEntry) bool) {
		for j, row := range t {
			if row != nil && !yield(graph.NodeID(j), row) {
				return
			}
		}
	}
}

// Clone returns a deep copy, in a table of the same length.
func (t PricingTable) Clone() PricingTable {
	out := make(PricingTable, len(t))
	for d, row := range t {
		if row == nil {
			continue
		}
		r := make(map[graph.NodeID]PriceEntry, len(row))
		for k, e := range row {
			r[k] = e.clone()
		}
		out[d] = r
	}
	return out
}

// Equal reports whether two pricing tables hold the same rows, tags
// included (tag divergence is what [BANK2] detects).
func (t PricingTable) Equal(o PricingTable) bool {
	for j := range max(len(t), len(o)) {
		a, b := t.Row(graph.NodeID(j)), o.Row(graph.NodeID(j))
		if (a == nil) != (b == nil) || !rowEqual(a, b) {
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
// canonical (present entries in ascending key order, every integer 8
// bytes big-endian) so equal tables hash equal, whatever their length.
// Each table is serialized into one buffer and hashed with one
// sha256.Sum256. The key and byte buffers start on the stack, so
// hashing the tables of a small network allocates nothing.

// Hash is a SHA-256 digest of a canonical table serialization.
type Hash [sha256.Size]byte

func appendInt64(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }

func appendPath(b []byte, p graph.Path) []byte {
	b = appendInt64(b, int64(len(p)))
	for _, n := range p {
		b = appendInt64(b, int64(n))
	}
	return b
}

// HashCosts returns the canonical hash of a DATA1 cost table; the
// bank compares these across all nodes at the end of the first
// construction phase ("terminates with common transit cost tables
// [DATA1] across all nodes", §4.3).
func (t CostTable) HashCosts() Hash {
	var keys [64]graph.NodeID
	var buf [1024]byte
	b := buf[:0]
	for _, id := range sortedKeys(keys[:], t) {
		b = appendInt64(b, int64(id))
		b = appendInt64(b, int64(t[id]))
	}
	return sha256.Sum256(b)
}

// HashRouting returns the canonical hash of a routing table. Present
// slots are serialized in index order, which is ascending destination
// order.
func (t RoutingTable) HashRouting() Hash {
	var buf [2048]byte
	b := buf[:0]
	for d, e := range t {
		if e.Path == nil {
			continue
		}
		b = appendInt64(b, int64(d))
		b = appendInt64(b, int64(e.Cost))
		b = appendPath(b, e.Path)
	}
	return sha256.Sum256(b)
}

// HashPricing returns the canonical hash of a pricing table, tags
// included (so [BANK2] sees tag inconsistencies as deviations).
func (t PricingTable) HashPricing() Hash {
	var transits [64]graph.NodeID
	var buf [4096]byte
	b := buf[:0]
	for d, row := range t {
		if row == nil {
			continue
		}
		b = appendInt64(b, int64(d))
		for _, k := range sortedKeys(transits[:], row) {
			e := row[k]
			b = appendInt64(b, int64(k))
			b = appendInt64(b, int64(e.Price))
			b = appendPath(b, e.Avoid)
			b = appendPath(b, e.Tags)
		}
	}
	return sha256.Sum256(b)
}

// sortedKeys returns m's keys in ascending order, in buf's storage
// while they fit.
func sortedKeys[V any](buf []graph.NodeID, m map[graph.NodeID]V) []graph.NodeID {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}
