// Package lib holds one case per rule of the one-path gate; each
// comment says what the gate makes of it.
package lib

import "fmt"

// TestOnly is referenced by no production file, as if only tests called
// it: exports flags it.
func TestOnly() {}

// Receiver is named only by its own method's receiver: exports flags it.
type Receiver struct{}

func (Receiver) String() string { return "receiver" }

// Asserted is named only by a blank assertion: exports flags it.
type Asserted struct{}

func (Asserted) String() string { return "asserted" }

var _ fmt.Stringer = Asserted{}

// Shape's Area is called through the interface; nothing calls its
// Name, so exports flags Shape.Name but not square's Name.
type Shape interface {
	Area() int
	Name() string
}

type square int

func (s square) Area() int     { return int(s * s) }
func (s square) Name() string  { return "square" }
func NewShape(side int) Shape  { return square(side) }
func Scale(s Shape, k int) int { return k * s.Area() }

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

// Stats' Hits is read only in package main, which counts. Misses is
// written and never read: reads flags it.
type Stats struct {
	Hits   int
	Misses int
}

func Count(keys []int) Stats {
	var s Stats
	for _, k := range keys {
		if k > 0 {
			s.Hits++
		} else {
			s.Misses += 1
		}
	}
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
