package pool

import (
	"math"
	"testing"

	"thymesim/internal/sim"
)

// Fuzz allocator geometry: a small reservation, so a short program both
// fills it and fragments it.
const (
	fuzzLender   = 1
	fuzzBase     = uint64(1) << 40
	fuzzCapacity = 64 * testAlign
)

// allocOps replays a byte program against one allocator, three bytes per
// op, and tracks the segments the ops left live.
type allocOps struct {
	t    *testing.T
	a    *Allocator
	live []Segment
	dead []Segment // freed at least once; candidates for double frees
}

// alloc carves size bytes. It must fail only when no free span fits the
// aligned size, and it must never hand out less than was asked for.
func (o *allocOps) alloc(size uint64) {
	seg, err := o.a.Alloc(size)
	if err != nil {
		if size != 0 && size <= fuzzCapacity && o.largestFree() >= roundUp(size) {
			o.t.Fatalf("Alloc(%d) failed with a %d-byte span free: %v", size, o.largestFree(), err)
		}
		return
	}
	if size == 0 || seg.Size < size || seg.Lender != fuzzLender {
		o.t.Fatalf("Alloc(%d) = %+v", size, seg)
	}
	o.live = append(o.live, seg)
}

// free releases the j-th live segment, which must succeed.
func (o *allocOps) free(j int) {
	seg := o.live[j]
	if err := o.a.Free(seg); err != nil {
		o.t.Fatalf("Free of live %+v: %v", seg, err)
	}
	o.live = append(o.live[:j], o.live[j+1:]...)
	o.dead = append(o.dead, seg)
}

// grow extends the j-th live segment to newSize. It may fail (a neighbour
// is carved out, or newSize does not grow), but a success must keep the
// base and cover newSize.
func (o *allocOps) grow(j int, newSize uint64) {
	seg := o.live[j]
	grown, err := o.a.Grow(seg, newSize)
	if err != nil {
		return
	}
	if grown.Base != seg.Base || grown.Size < newSize || grown.Size <= seg.Size {
		o.t.Fatalf("Grow(%+v, %d) = %+v", seg, newSize, grown)
	}
	o.live[j] = grown
}

// bad builds a segment the allocator does not own as a live segment: a
// double free, another lender's segment, one outside the reservation, a
// malformed one, or a part of a live segment. ok is false when the chosen
// kind has nothing to build from, or when a freed segment has since been
// carved again exactly and so is live after all.
func (o *allocOps) bad(kind, x byte) (Segment, bool) {
	pick := func(s []Segment) (Segment, bool) {
		if len(s) == 0 {
			return Segment{}, false
		}
		return s[int(x)%len(s)], true
	}
	switch kind % 6 {
	case 0: // double free
		seg, ok := pick(o.dead)
		for _, l := range o.live {
			if l == seg {
				return seg, false
			}
		}
		return seg, ok
	case 1: // foreign lender
		seg, ok := pick(append(o.live, o.dead...))
		seg.Lender = fuzzLender + 1
		return seg, ok
	case 2: // past the reservation's end
		return Segment{Lender: fuzzLender, Base: fuzzBase + fuzzCapacity + uint64(x)*testAlign, Size: testAlign}, true
	case 3: // before the reservation's base, possibly reaching into it
		return Segment{Lender: fuzzLender, Base: fuzzBase - testAlign, Size: uint64(x%4+1) * testAlign}, true
	case 4: // malformed: unaligned base, unaligned size, or zero size
		seg, ok := pick(o.live)
		switch x % 3 {
		case 0:
			seg.Base++
		case 1:
			seg.Size++
		default:
			seg.Size = 0
		}
		return seg, ok
	default: // a live segment's tail, or a live segment stretched by a line
		seg, ok := pick(o.live)
		if x%2 == 0 && seg.Size > testAlign {
			seg.Base += testAlign
			seg.Size -= testAlign
		} else {
			seg.Size += testAlign
		}
		return seg, ok
	}
}

func (o *allocOps) largestFree() uint64 {
	var m uint64
	for _, s := range o.a.FreeSpans() {
		m = max(m, s.Size)
	}
	return m
}

func roundUp(size uint64) uint64 { return (size + testAlign - 1) &^ (testAlign - 1) }

// size decodes an alloc or grow size: mostly a multiple of half an
// alignment unit (zero included, up to twice the reservation), sometimes
// near the top of the uint64 range.
func size(x, y byte) uint64 {
	if x == 255 {
		return math.MaxUint64 - uint64(y)
	}
	return uint64(x) * testAlign / 2
}

// FuzzAllocatorOps decodes a byte stream into Alloc/Free/Grow ops on one
// allocator, including zero and over-capacity sizes and double, foreign,
// malformed and out-of-range frees and grows. Nothing may panic, a bad
// free or grow must be rejected without effect, the allocator is audited
// after every op, and a final drain must coalesce the free list into one
// span covering the reservation.
func FuzzAllocatorOps(f *testing.F) {
	// Seed with TestAllocatorChurnProperties-style schedules: random op
	// streams from its fixed seeds.
	for _, seed := range []uint64{1, 2, 3, 0xDEAD} {
		rng := sim.NewRand(seed)
		prog := make([]byte, 3*200)
		for i := range prog {
			prog[i] = byte(rng.Uint64())
		}
		f.Add(prog)
	}
	// Fill the reservation, free every other segment, then grow into the
	// holes and double-free.
	f.Add([]byte{
		0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 200, 0,
		3, 0, 0, 3, 1, 0, 6, 0, 16, 6, 1, 4, 5, 0, 0, 5, 1, 0,
		0, 255, 7, 0, 0, 0, 7, 0, 3, 7, 1, 5,
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		a, err := NewAllocator(fuzzLender, fuzzBase, fuzzCapacity, testAlign)
		if err != nil {
			t.Fatal(err)
		}
		o := &allocOps{t: t, a: a}
		for ; len(prog) >= 3; prog = prog[3:] {
			op, x, y := prog[0], prog[1], prog[2]
			switch op % 8 {
			case 0, 1, 2:
				o.alloc(size(x, y))
			case 3, 4:
				if len(o.live) > 0 {
					o.free(int(x) % len(o.live))
				}
			case 5:
				if seg, ok := o.bad(y, x); ok {
					if err := a.Free(seg); err == nil {
						t.Fatalf("bad free of %+v accepted (live %+v)", seg, o.live)
					}
				}
			case 6:
				if len(o.live) > 0 {
					j := int(x) % len(o.live)
					o.grow(j, o.live[j].Size+size(y, x))
				}
			default:
				if seg, ok := o.bad(y, x); ok {
					if _, err := a.Grow(seg, seg.Size+testAlign); err == nil {
						t.Fatalf("grow of bad segment %+v accepted (live %+v)", seg, o.live)
					}
				}
			}
			auditAllocator(t, a, o.live)
		}
		for len(o.live) > 0 {
			o.free(len(o.live) - 1)
		}
		auditAllocator(t, a, nil)
		if spans := a.FreeSpans(); len(spans) != 1 || spans[0].Base != fuzzBase || spans[0].Size != fuzzCapacity {
			t.Fatalf("drained free list not one span covering the reservation: %+v", spans)
		}
	})
}
