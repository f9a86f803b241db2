// Package vclock implements the vector clocks underlying the race
// detector's happens-before reasoning.
//
// A clock maps execution-context ids (TSan fibers in this reproduction) to
// logical epochs. Clocks are dense slices indexed by context id, because
// fiber ids are small and allocated contiguously.
package vclock

import (
	"fmt"
	"strings"
)

// Epoch is the logical time of one execution context.
type Epoch uint64

// Clock is a vector clock. The zero value is a valid clock at time zero
// everywhere.
type Clock struct {
	ts []Epoch
}

// New returns an empty clock.
func New() *Clock { return &Clock{} }

// Get returns the epoch recorded for context id.
func (c *Clock) Get(id int) Epoch {
	if id < 0 || id >= len(c.ts) {
		return 0
	}
	return c.ts[id]
}

// Set records epoch e for context id, growing the clock as needed.
func (c *Clock) Set(id int, e Epoch) {
	c.grow(id)
	c.ts[id] = e
}

// Tick advances context id's component by one and returns the new epoch.
func (c *Clock) Tick(id int) Epoch {
	c.grow(id)
	c.ts[id]++
	return c.ts[id]
}

func (c *Clock) grow(id int) {
	if id < len(c.ts) {
		return
	}
	if id < cap(c.ts) {
		// Grow in place. The extension must be zeroed explicitly: the
		// backing array may carry stale epochs from a prior Assign that
		// shrank the clock, or uninitialized arena memory.
		old := len(c.ts)
		c.ts = c.ts[:id+1]
		for i := old; i <= id; i++ {
			c.ts[i] = 0
		}
		return
	}
	ns := make([]Epoch, id+1, max(id+1, 2*cap(c.ts)))
	copy(ns, c.ts)
	c.ts = ns
}

// Join merges other into c, component-wise maximum. This is the "acquire"
// half of release/acquire synchronization.
func (c *Clock) Join(other *Clock) {
	if other == nil {
		return
	}
	if len(other.ts) > len(c.ts) {
		c.grow(len(other.ts) - 1)
	}
	for i, e := range other.ts {
		if e > c.ts[i] {
			c.ts[i] = e
		}
	}
}

// Assign overwrites c with a copy of other.
func (c *Clock) Assign(other *Clock) {
	if other == nil {
		c.ts = c.ts[:0]
		return
	}
	if cap(c.ts) < len(other.ts) {
		c.ts = make([]Epoch, len(other.ts))
	} else {
		c.ts = c.ts[:len(other.ts)]
	}
	copy(c.ts, other.ts)
}

// Clone returns an independent copy of c.
func (c *Clock) Clone() *Clock {
	n := New()
	n.Assign(c)
	return n
}

// HappensBefore reports whether every component of c is <= the
// corresponding component of other, i.e. c's knowledge is contained in
// other's. Two equal clocks "happen before" each other in this ordering;
// callers that need strict ordering compare identity separately.
func (c *Clock) HappensBefore(other *Clock) bool {
	for i, e := range c.ts {
		if e > other.Get(i) {
			return false
		}
	}
	return true
}

// Concurrent reports whether neither clock is ordered before the other.
func (c *Clock) Concurrent(other *Clock) bool {
	return !c.HappensBefore(other) && !other.HappensBefore(c)
}

// Epochs returns the clock's dense component slice, indexed by context
// id (ids past its end are at epoch 0). It aliases the clock: callers
// must not modify it, and must not keep it across a Set, Tick, Join or
// Assign.
func (c *Clock) Epochs() []Epoch { return c.ts }

// Len returns the number of components tracked.
func (c *Clock) Len() int { return len(c.ts) }

// Arena is a chunked allocator for clocks. The race detector creates a
// clock per fiber and per synchronization variable; allocating the
// Clock headers and their epoch backing arrays out of shared slabs
// keeps steady-state detector operation free of per-object heap
// allocations and places hot clocks contiguously in memory.
//
// Clocks handed out by an Arena never return to it individually — the
// whole arena is dropped (garbage collected) with its owner, the
// "reset per run" lifecycle. A clock that outgrows its slab-backed
// capacity falls back to the ordinary heap transparently via grow.
type Arena struct {
	clocks []Clock
	epochs []Epoch
	hint   int
}

const (
	arenaClockChunk = 32
	minArenaHint    = 4
)

// NewArena returns an arena whose clocks start with capacity hint.
func NewArena(hint int) *Arena {
	a := &Arena{}
	a.SetHint(hint)
	return a
}

// SetHint adjusts the initial capacity of subsequently allocated
// clocks (callers raise it as the number of execution contexts grows,
// so later clocks do not immediately re-allocate on first Join).
func (a *Arena) SetHint(hint int) {
	if hint < minArenaHint {
		hint = minArenaHint
	}
	a.hint = hint
}

// New carves a zeroed clock with capacity a.hint out of the arena.
func (a *Arena) New() *Clock {
	if len(a.clocks) == 0 {
		a.clocks = make([]Clock, arenaClockChunk)
	}
	c := &a.clocks[0]
	a.clocks = a.clocks[1:]
	if len(a.epochs) < a.hint {
		a.epochs = make([]Epoch, arenaClockChunk*a.hint)
	}
	c.ts = a.epochs[:0:a.hint]
	a.epochs = a.epochs[a.hint:]
	return c
}

// String renders the clock as {id:epoch ...} for diagnostics, omitting
// zero components.
func (c *Clock) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, e := range c.ts {
		if e == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", i, e)
	}
	b.WriteByte('}')
	return b.String()
}
