// Package lib holds one case per rule of the one-path gate; each
// comment says what the gate makes of it.
package lib

import "fmt"

// TestOnly is reached from no root, as if only tests called it: reach
// flags it.
func TestOnly() { onlyFromDead() }

// onlyFromDead is called only by dead code: reach flags it.
func onlyFromDead() {}

// unused is an unexported helper nothing calls: reach flags it.
func unused() int { return 0 }

// Receiver is named only by its own method's receiver: reach flags it,
// and its key covers its String.
type Receiver struct{}

func (Receiver) String() string { return "receiver" }

// Asserted is named only by a blank assertion, which keeps nothing
// alive: reach flags it.
type Asserted struct{}

func (Asserted) String() string { return "asserted" }

var _ fmt.Stringer = Asserted{}

// Label's String is called by no module code, but main hands a Label to
// fmt, and String satisfies fmt.Stringer: reach keeps it.
type Label string

func (l Label) String() string { return "label " + string(l) }

func NewLabel(s string) Label { return Label(s) }

// Shape's Area is called through the interface, which keeps square's
// Area alive. Nothing calls Name, directly or through Shape: reach
// flags Shape.Name and square.Name.
type Shape interface {
	Area() int
	Name() string
}

type square int

func (s square) Area() int     { return int(s * s) }
func (s square) Name() string  { return "square" }
func NewShape(side int) Shape  { return square(side) }
func Scale(s Shape, k int) int { return k * s.Area() }

// registry is named by init, a root, and fromInit is called by it:
// reach keeps both.
var registry []string

func init() { registry = append(registry, fromInit()) }

func fromInit() string { return "init" }

// A package-level initialiser runs at start-up, so it is a root too,
// and reach keeps fromInitialiser.
var _ = fromInitialiser()

func fromInitialiser() bool { return len(registry) > 0 }

// Config's Size is set and read. No production file sets Verbose, as if
// only tests did, and Merge only copies Mode from another Config:
// fields flags both.
type Config struct {
	Size    int
	Verbose bool
	Mode    int
}

func (c Config) Verbosity() int { return map[bool]int{true: 1}[c.Verbose] }

func Merge(c, d Config) Config {
	c.Mode = d.Mode
	return Config{Size: c.Size, Mode: c.Mode}
}

// Stats' Hits is read only in package main, which counts. Misses and
// the unexported last are written and never read: reads flags both.
type Stats struct {
	Hits   int
	Misses int
	last   int
}

// pair's fields are set and never selected, but keying a map by a pair
// compares them: reads counts them as read.
type pair struct{ a, b int }

func Count(keys []int) Stats {
	var s Stats
	seen := map[pair]bool{}
	for _, k := range keys {
		seen[pair{k, -k}] = true
		if k > 0 {
			s.Hits++
		} else {
			s.Misses += 1
		}
		s.last = k
	}
	s.Hits += len(seen) - len(keys)
	return s
}

// Reply crosses a JSON codec, which reads its write-only Code and the
// fields of the untagged Meta it carries, so reads exempts both types.
type Reply struct {
	Code int   `json:"code"`
	Meta *Meta `json:"meta"`
}

type Meta struct{ Tries int }

func NewReply() Reply { return Reply{Code: 1, Meta: &Meta{Tries: 2}} }
