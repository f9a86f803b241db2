package memspace

import (
	"encoding/binary"
	"math"
	"sort"
)

// View is an immutable snapshot of the segment table for concurrent
// readers. The kernel interpreter creates one View per worker goroutine so
// that device "threads" can resolve pointers without synchronizing on the
// Memory object (whose Resolve cache is single-threaded).
//
// Segments in a View alias the live allocations: loads and stores through
// a View are visible to the owning Memory and vice versa. Allocating or
// freeing while Views exist is the caller's bug (the simulated CUDA
// runtime never mutates the address space while a kernel is in flight).
type View struct {
	segs []*Segment
	last *Segment
	// deferAdd, when non-nil, receives AddF64 calls instead of memory
	// (see Deferring).
	deferAdd func(a Addr, b []byte, x float64)
}

// NewView snapshots the current segment table.
func (m *Memory) NewView() *View {
	segs := make([]*Segment, len(m.segs))
	copy(segs, m.segs)
	return &View{segs: segs}
}

// Clone returns an independent View (own cache) over the same snapshot.
func (v *View) Clone() *View {
	return &View{segs: v.segs}
}

// Deferring returns a clone of v whose AddF64 calls are handed to fn,
// with the target bytes, instead of being applied. A launcher running
// kernel threads on several views uses it to apply their float
// additions in an order of its own choosing.
func (v *View) Deferring(fn func(a Addr, b []byte, x float64)) *View {
	return &View{segs: v.segs, deferAdd: fn}
}

// AddF64 adds x to the little-endian float64 at a, or hands the
// addition to the view's deferral function (see Deferring). The plain
// read-modify-write is not atomic: concurrent callers serialize.
func (v *View) AddF64(a Addr, x float64) error {
	b, err := v.Bytes(a, 8)
	if err != nil {
		return err
	}
	if v.deferAdd != nil {
		v.deferAdd(a, b, x)
		return nil
	}
	binary.LittleEndian.PutUint64(b, math.Float64bits(math.Float64frombits(binary.LittleEndian.Uint64(b))+x))
	return nil
}

// Resolve returns the segment containing a, or nil.
func (v *View) Resolve(a Addr) *Segment {
	if s := v.last; s != nil && s.Contains(a) {
		return s
	}
	i := sort.Search(len(v.segs), func(i int) bool { return v.segs[i].Base > a })
	i--
	if i >= 0 && v.segs[i].Contains(a) {
		v.last = v.segs[i]
		return v.segs[i]
	}
	return nil
}

// Bytes returns a byte view of [a, a+n), or nil with an error if the range
// is not contained in a single segment.
func (v *View) Bytes(a Addr, n int64) ([]byte, error) {
	seg := v.Resolve(a)
	if seg == nil || n < 0 || a+Addr(n) > seg.End() || a+Addr(n) < a {
		return nil, &AccessError{Op: "view-range", Addr: a, Len: n}
	}
	off := int64(a - seg.Base)
	return seg.data[off : off+n : off+n], nil
}
