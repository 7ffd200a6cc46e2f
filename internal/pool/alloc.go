// Package pool implements the rack-scale memory-pooling control logic:
// per-lender segment allocators that carve a lender's DRAM reservation
// into borrower-attached regions, and placement policies that decide
// which lender serves a new attach request.
//
// The package is pure bookkeeping — it schedules nothing — so its
// invariants (no segment overlap, capacity conservation, free-list
// coalescing) are property-testable in isolation; cluster.Pool drives one
// allocator per lender, and its metrics collector reads the allocators'
// occupancy getters.
package pool

import (
	"fmt"
	"sort"
)

// Segment is one carved region of a lender's reservation: lender-physical
// addresses [Base, Base+Size).
type Segment struct {
	// Lender is the allocator's lender index (pool-local, not a fabric
	// node id).
	Lender int
	Base   uint64
	Size   uint64
}

// End returns the first address past the segment.
func (s Segment) End() uint64 { return s.Base + s.Size }

// Overlaps reports whether two segments share any address.
func (s Segment) Overlaps(o Segment) bool {
	return s.Base < o.End() && o.Base < s.End()
}

// span is one free extent, kept sorted by base and always coalesced: no
// two spans touch or overlap.
type span struct {
	base, size uint64
}

// Allocator carves one lender's reservation [base, base+capacity) into
// segments. First-fit with an address-ordered, eagerly-coalesced free
// list: deterministic, and fragmentation-diagnosable via FreeSpans.
type Allocator struct {
	lender    int
	base      uint64
	capacity  uint64
	align     uint64
	free      []span
	live      map[uint64]uint64 // size of each live segment, by base
	allocated uint64
}

// NewAllocator builds an allocator for lender's reservation
// [base, base+capacity), with every segment base and size aligned to
// align (a power of two).
func NewAllocator(lender int, base, capacity, align uint64) (*Allocator, error) {
	if capacity == 0 {
		return nil, fmt.Errorf("pool: lender %d has zero capacity", lender)
	}
	if align == 0 || align&(align-1) != 0 {
		return nil, fmt.Errorf("pool: alignment %d not a power of two", align)
	}
	if base%align != 0 || capacity%align != 0 {
		return nil, fmt.Errorf("pool: reservation %#x+%#x unaligned to %d", base, capacity, align)
	}
	return &Allocator{
		lender:   lender,
		base:     base,
		capacity: capacity,
		align:    align,
		free:     []span{{base: base, size: capacity}},
		live:     make(map[uint64]uint64),
	}, nil
}

// Lender returns the lender index this allocator carves.
func (a *Allocator) Lender() int { return a.lender }

// Capacity returns the reservation size in bytes.
func (a *Allocator) Capacity() uint64 { return a.capacity }

// Allocated returns the bytes currently carved out.
func (a *Allocator) Allocated() uint64 { return a.allocated }

// FreeBytes returns the bytes not carved out. Allocated+FreeBytes always
// equals Capacity — the conservation invariant the property suite pins.
func (a *Allocator) FreeBytes() uint64 { return a.capacity - a.allocated }

// Segments returns the number of live segments.
func (a *Allocator) Segments() int { return len(a.live) }

// FreeSpanCount returns the number of free spans after coalescing.
func (a *Allocator) FreeSpanCount() int { return len(a.free) }

// LargestFree returns the size of the largest free span (0 when full).
func (a *Allocator) LargestFree() uint64 {
	var largest uint64
	for _, s := range a.free {
		largest = max(largest, s.size)
	}
	return largest
}

// FreeSpans returns a copy of the free list (sorted, coalesced) for
// invariant checks and fragmentation diagnostics.
func (a *Allocator) FreeSpans() []Segment {
	out := make([]Segment, len(a.free))
	for i, s := range a.free {
		out[i] = Segment{Lender: a.lender, Base: s.base, Size: s.size}
	}
	return out
}

// Alloc carves a segment of the given size (rounded up to the alignment)
// from the first free span that fits.
func (a *Allocator) Alloc(size uint64) (Segment, error) {
	if size == 0 {
		return Segment{}, fmt.Errorf("pool: zero-size alloc on lender %d", a.lender)
	}
	// A size past the reservation fits no span; leaving it unrounded keeps
	// the rounding from wrapping.
	if size <= a.capacity {
		size = (size + a.align - 1) &^ (a.align - 1)
	}
	for i := range a.free {
		f := &a.free[i]
		if f.size < size {
			continue
		}
		seg := Segment{Lender: a.lender, Base: f.base, Size: size}
		f.base += size
		f.size -= size
		if f.size == 0 {
			a.free = append(a.free[:i], a.free[i+1:]...)
		}
		a.live[seg.Base] = size
		a.allocated += size
		return seg, nil
	}
	return Segment{}, fmt.Errorf("pool: lender %d cannot fit %d bytes (%d free in %d spans)",
		a.lender, size, a.FreeBytes(), len(a.free))
}

// Free returns a segment to the free list, coalescing with neighbours.
// Anything but a live segment exactly as Alloc or Grow returned it — a
// double free, another lender's segment, a part of a live segment — is
// rejected: a control plane bug must surface, not corrupt the pool.
func (a *Allocator) Free(seg Segment) error {
	if err := a.checkLive(seg); err != nil {
		return err
	}
	delete(a.live, seg.Base)
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].base >= seg.Base })
	// Coalesce with the predecessor and/or successor when adjacent.
	joinPrev := i > 0 && a.free[i-1].base+a.free[i-1].size == seg.Base
	joinNext := i < len(a.free) && seg.End() == a.free[i].base
	switch {
	case joinPrev && joinNext:
		a.free[i-1].size += seg.Size + a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	case joinPrev:
		a.free[i-1].size += seg.Size
	case joinNext:
		a.free[i].base = seg.Base
		a.free[i].size += seg.Size
	default:
		a.free = append(a.free, span{})
		copy(a.free[i+1:], a.free[i:])
		a.free[i] = span{base: seg.Base, size: seg.Size}
	}
	a.allocated -= seg.Size
	return nil
}

// Grow extends a live segment in place to newSize (rounded up to the
// alignment), consuming the free span that immediately follows it. It
// fails — leaving the segment untouched — when the adjacent space is
// carved out or too small; relocation is the caller's policy decision.
func (a *Allocator) Grow(seg Segment, newSize uint64) (Segment, error) {
	if err := a.checkLive(seg); err != nil {
		return Segment{}, err
	}
	if newSize <= seg.Size {
		return Segment{}, fmt.Errorf("pool: grow of %#x+%#x to %d does not grow", seg.Base, seg.Size, newSize)
	}
	// As in Alloc: a size past the reservation fits no span.
	if newSize <= a.capacity {
		newSize = (newSize + a.align - 1) &^ (a.align - 1)
	}
	need := newSize - seg.Size
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].base >= seg.End() })
	if i == len(a.free) || a.free[i].base != seg.End() || a.free[i].size < need {
		return Segment{}, fmt.Errorf("pool: lender %d cannot grow %#x+%#x to %d in place",
			a.lender, seg.Base, seg.Size, newSize)
	}
	a.free[i].base += need
	a.free[i].size -= need
	if a.free[i].size == 0 {
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.allocated += need
	seg.Size = newSize
	a.live[seg.Base] = newSize
	return seg, nil
}

// checkLive validates that seg is one of this allocator's live segments,
// exactly as Alloc or Grow last returned it.
func (a *Allocator) checkLive(seg Segment) error {
	if seg.Lender != a.lender {
		return fmt.Errorf("pool: segment of lender %d handed to lender %d", seg.Lender, a.lender)
	}
	if size, ok := a.live[seg.Base]; !ok || size != seg.Size {
		return fmt.Errorf("pool: %#x+%#x is not a live segment of lender %d (double free?)",
			seg.Base, seg.Size, a.lender)
	}
	return nil
}
