package axis

import (
	"testing"

	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// seqBeat returns a beat whose every field derives from i, so a beat that
// comes back with any field from another slot, or with a field lost in
// the copy, is caught.
func seqBeat(i int, pkts []ocapi.Packet) Beat {
	return Beat{
		Born:    sim.Time(1000 + i),
		Pkt:     &pkts[i%len(pkts)],
		Bytes:   int32(i % 97),
		Dest:    int32(i),
		Flow:    int32(-i),
		Last:    i%2 == 0,
		Corrupt: i%3 == 0,
	}
}

// checkFIFO compares f with its reference contents: length, space, the
// cumulative counters and the head beat.
func checkFIFO(t *testing.T, f *FIFO, ref []Beat, pushed, popped, bytes uint64) {
	t.Helper()
	if f.Len() != len(ref) || f.Space() != f.Cap()-len(ref) {
		t.Fatalf("len=%d space=%d, reference holds %d of %d", f.Len(), f.Space(), len(ref), f.Cap())
	}
	if f.Pushed() != pushed || f.Popped() != popped || f.Bytes() != bytes {
		t.Fatalf("pushed=%d popped=%d bytes=%d, want %d/%d/%d",
			f.Pushed(), f.Popped(), f.Bytes(), pushed, popped, bytes)
	}
	b, ok := f.Peek()
	if ok != (len(ref) > 0) || (ok && b != ref[0]) {
		t.Fatalf("Peek() = %+v, %v; reference head %v", b, ok, ref)
	}
}

// TestFIFOGrowsWhileWrapped grows a 100-beat FIFO's ring from 64 to 100
// while its contents wrap around the end of the 64-beat ring, then keeps
// wrapping the 100-beat ring.
func TestFIFOGrowsWhileWrapped(t *testing.T) {
	pkts := make([]ocapi.Packet, 5)
	f := NewFIFO("q", 100)
	var ref []Beat
	next := 0
	push := func(n int) {
		for ; n > 0; n-- {
			b := seqBeat(next, pkts)
			next++
			if !f.TryPush(b) {
				t.Fatalf("push %d refused at len %d", next, f.Len())
			}
			ref = append(ref, b)
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			b, ok := f.Pop()
			if !ok || b != ref[0] {
				t.Fatalf("Pop() = %+v, %v, want %+v", b, ok, ref[0])
			}
			ref = ref[1:]
		}
	}
	push(64)
	pop(10)
	push(10) // wraps: the ring is full with its head at 10
	if len(f.buf) != 64 || f.head != 10 {
		t.Fatalf("before growth: ring %d long, head %d", len(f.buf), f.head)
	}
	push(1)
	if len(f.buf) != 100 || f.head != 0 {
		t.Fatalf("after growth: ring %d long, head %d", len(f.buf), f.head)
	}
	push(100 - f.Len())
	if f.TryPush(Beat{}) {
		t.Fatal("push to a full FIFO succeeded")
	}
	for i := 0; i < 20; i++ {
		pop(37)
		push(37)
	}
	pop(len(ref))
	if _, ok := f.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

// TestFIFOPopReleasesPacket checks that a popped slot no longer references
// its packet, so the GC can reclaim packets that left the queue.
func TestFIFOPopReleasesPacket(t *testing.T) {
	f := NewFIFO("q", 4)
	for i := 0; i < 3; i++ {
		f.Push(Beat{Pkt: &ocapi.Packet{}})
	}
	f.Pop()
	f.Pop()
	for i, b := range f.buf {
		if live := i == f.head; (b.Pkt != nil) != live {
			t.Fatalf("slot %d holds packet %p (head %d)", i, b.Pkt, f.head)
		}
	}
}

// TestMuxRoundRobinManyWraps runs a three-input mux over a thousand
// round-robin wraps with inputs draining at different times: every
// transfer must take the first backlogged input after the last one
// served, cyclically.
func TestMuxRoundRobinManyWraps(t *testing.T) {
	k := sim.NewKernel()
	ins := []*FIFO{NewFIFO("a", 1000), NewFIFO("b", 1000), NewFIFO("c", 1000)}
	out := NewFIFO("out", 4000)
	m := NewMux(k, ins, out, sim.Nanosecond, nil)
	backlog := []int{1000, 400, 700}
	last := 0 // the mux starts as if input 0 was served last
	served := make([]int, len(ins))
	out.OnPush(func(b Beat) {
		idx := int(b.Flow)
		for j := (last + 1) % len(ins); j != idx; j = (j + 1) % len(ins) {
			if ins[j].Len() > 0 {
				t.Fatalf("transfer %d took input %d, but input %d after %d was backlogged",
					m.Transfers(), idx, j, last)
			}
		}
		last = idx
		served[idx]++
	})
	k.At(0, func() {
		for i, n := range backlog {
			for ; n > 0; n-- {
				ins[i].Push(Beat{Flow: int32(i)})
			}
		}
	})
	k.Run()
	for i, n := range backlog {
		if served[i] != n || m.FlowTransfers(i) != uint64(n) {
			t.Fatalf("input %d: served %d, counted %d, want %d", i, served[i], m.FlowTransfers(i), n)
		}
	}
	// While all three are backlogged the order is strictly b, c, a.
	for i := 0; i < 3*400; i++ {
		b, _ := out.Pop()
		if want := int32((i + 1) % 3); b.Flow != want {
			t.Fatalf("transfer %d from input %d, want %d", i, b.Flow, want)
		}
	}
}

// FuzzFIFO operations; each input byte picks one modulo opKinds.
const (
	opPush = iota
	opTryPush
	opPop
	opPeek
	opKinds
)

// FuzzFIFO checks random capacities and Push/TryPush/Pop/Peek sequences
// against a slice reference, including ring growth while wrapped: the
// first byte picks the capacity (1–200), each later byte an operation.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{2, opPush, opPush, opPop, opPush, opPeek, opPop, opPop})
	f.Add([]byte{0, opTryPush, opTryPush, opPop, opPeek})
	// Capacity 100: fill 64, pop 10, refill 11 (the last grows the ring
	// while it wraps), then drain.
	grow := []byte{99}
	for _, r := range []struct{ op, n int }{{opPush, 64}, {opPop, 10}, {opTryPush, 11}, {opPop, 80}} {
		for i := 0; i < r.n; i++ {
			grow = append(grow, byte(r.op))
		}
	}
	f.Add(grow)
	pkts := make([]ocapi.Packet, 3)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := int(ops[0])%200 + 1
		q := NewFIFO("fuzz", capacity)
		var ref []Beat
		var pushed, popped, bytes uint64
		for i, op := range ops[1:] {
			b := seqBeat(i, pkts)
			switch int(op) % opKinds {
			case opPush:
				full := len(ref) == capacity
				func() {
					defer func() {
						if r := recover(); (r != nil) != full {
							t.Fatalf("op %d: Push at %d/%d: panic %v", i, len(ref), capacity, r)
						}
					}()
					q.Push(b)
				}()
				if !full {
					ref = append(ref, b)
					pushed++
					bytes += uint64(b.Bytes)
				}
			case opTryPush:
				ok := q.TryPush(b)
				if ok != (len(ref) < capacity) {
					t.Fatalf("op %d: TryPush at %d/%d = %v", i, len(ref), capacity, ok)
				}
				if ok {
					ref = append(ref, b)
					pushed++
					bytes += uint64(b.Bytes)
				}
			case opPop:
				got, ok := q.Pop()
				if ok != (len(ref) > 0) || (ok && got != ref[0]) {
					t.Fatalf("op %d: Pop() = %+v, %v; reference %v", i, got, ok, ref)
				}
				if ok {
					ref = ref[1:]
					popped++
				}
			}
			checkFIFO(t, q, ref, pushed, popped, bytes)
		}
	})
}
