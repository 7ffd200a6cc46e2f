package axis

import (
	"testing"
	"testing/quick"
	"unsafe"

	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// TestBeatSize pins the beat layout: every FIFO slot, delay-line flight and
// switch hop copies a Beat, so it must stay half a cache line with no
// interface in it.
func TestBeatSize(t *testing.T) {
	if got := unsafe.Sizeof(Beat{}); got != 32 {
		t.Fatalf("sizeof(Beat) = %d, want 32", got)
	}
}

func TestFIFOBasics(t *testing.T) {
	f := NewFIFO("q", 2)
	if f.Len() != 0 || f.Space() != 2 || f.Cap() != 2 {
		t.Fatal("fresh FIFO state wrong")
	}
	if !f.TryPush(Beat{Bytes: 10}) || !f.TryPush(Beat{Bytes: 20}) {
		t.Fatal("pushes failed")
	}
	if f.TryPush(Beat{}) {
		t.Fatal("push to full FIFO succeeded")
	}
	if f.Bytes() != 30 || f.Pushed() != 2 {
		t.Fatalf("bytes=%d pushed=%d", f.Bytes(), f.Pushed())
	}
	b, ok := f.Peek()
	if !ok || b.Bytes != 10 {
		t.Fatal("peek wrong")
	}
	b, ok = f.Pop()
	if !ok || b.Bytes != 10 {
		t.Fatal("pop wrong")
	}
	b, _ = f.Pop()
	if b.Bytes != 20 {
		t.Fatal("FIFO order violated")
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	if f.Popped() != 2 {
		t.Fatalf("popped=%d", f.Popped())
	}
}

// TestFIFOWrapAround drives rings whose lengths are not powers of two
// through many wraps: every beat must come back whole and in order.
func TestFIFOWrapAround(t *testing.T) {
	pkts := make([]ocapi.Packet, 7)
	for _, capacity := range []int{1, 3, 5, 100} {
		f := NewFIFO("q", capacity)
		var ref []Beat
		var pushed, popped, bytes uint64
		next := 0
		// Burst sizes step through every fill level, so head and tail
		// cross the ring's end at every offset.
		for round := 0; round < 4*capacity+8; round++ {
			for n := round%capacity + 1; n > 0 && f.Space() > 0; n-- {
				b := seqBeat(next, pkts)
				next++
				f.Push(b)
				ref = append(ref, b)
				pushed++
				bytes += uint64(b.Bytes)
			}
			checkFIFO(t, f, ref, pushed, popped, bytes)
			for n := (round*7)%capacity + 1; n > 0 && len(ref) > 0; n-- {
				b, ok := f.Pop()
				if !ok || b != ref[0] {
					t.Fatalf("cap %d round %d: Pop() = %+v, %v, want %+v", capacity, round, b, ok, ref[0])
				}
				ref = ref[1:]
				popped++
			}
			checkFIFO(t, f, ref, pushed, popped, bytes)
		}
		if len(f.buf) != capacity {
			t.Fatalf("cap %d: ring is %d long", capacity, len(f.buf))
		}
	}
}

func TestFIFOCallbacks(t *testing.T) {
	f := NewFIFO("q", 1)
	data, space := 0, 0
	f.OnData(func() { data++ })
	f.OnSpace(func() { space++ })
	f.Push(Beat{})
	f.Pop()
	if data != 1 || space != 1 {
		t.Fatalf("callbacks data=%d space=%d", data, space)
	}
}

func TestFIFOPushFullPanics(t *testing.T) {
	f := NewFIFO("q", 1)
	f.Push(Beat{})
	defer func() {
		if recover() == nil {
			t.Error("Push to full FIFO did not panic")
		}
	}()
	f.Push(Beat{})
}

func TestPumpMovesAtCycleRate(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 16)
	out := NewFIFO("out", 16)
	p := NewPump(k, in, out, 10*sim.Nanosecond, nil)
	k.At(0, func() {
		for i := 0; i < 5; i++ {
			in.Push(Beat{Dest: int32(i), Born: k.Now()})
		}
	})
	end := k.Run()
	if p.Transfers() != 5 || out.Len() != 5 {
		t.Fatalf("transfers=%d outLen=%d", p.Transfers(), out.Len())
	}
	// First beat at t=0, one per 10ns after: last at 40ns.
	if end != sim.Time(40*sim.Nanosecond) {
		t.Fatalf("end = %v, want 40ns", end)
	}
}

func TestPumpBackpressure(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 16)
	out := NewFIFO("out", 2)
	NewPump(k, in, out, sim.Nanosecond, nil)
	k.At(0, func() {
		for i := 0; i < 6; i++ {
			in.Push(Beat{Dest: int32(i)})
		}
	})
	k.Run()
	if out.Len() != 2 || in.Len() != 4 {
		t.Fatalf("backpressure failed: out=%d in=%d", out.Len(), in.Len())
	}
	// Drain one: pump must resume.
	k.At(k.Now()+1, func() { out.Pop() })
	k.Run()
	if out.Len() != 2 || in.Len() != 3 {
		t.Fatalf("resume failed: out=%d in=%d", out.Len(), in.Len())
	}
}

func TestPumpPreservesOrder(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 64)
	mid := NewFIFO("mid", 4)
	out := NewFIFO("out", 64)
	NewPump(k, in, mid, 2*sim.Nanosecond, nil)
	NewPump(k, mid, out, 3*sim.Nanosecond, nil)
	k.At(0, func() {
		for i := 0; i < 30; i++ {
			in.Push(Beat{Dest: int32(i)})
		}
	})
	k.Run()
	if out.Len() != 30 {
		t.Fatalf("out = %d", out.Len())
	}
	for i := 0; i < 30; i++ {
		b, _ := out.Pop()
		if int(b.Dest) != i {
			t.Fatalf("order violated at %d: %d", i, b.Dest)
		}
	}
}

func TestPumpOnForward(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 4)
	out := NewFIFO("out", 4)
	p := NewPump(k, in, out, sim.Nanosecond, nil)
	var seen []int
	p.OnForward(func(b Beat) { seen = append(seen, int(b.Dest)) })
	k.At(0, func() { in.Push(Beat{Dest: 7}) })
	k.Run()
	if len(seen) != 1 || seen[0] != 7 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestMuxRoundRobinFairness(t *testing.T) {
	k := sim.NewKernel()
	a := NewFIFO("a", 100)
	b := NewFIFO("b", 100)
	out := NewFIFO("out", 1000)
	m := NewMux(k, []*FIFO{a, b}, out, sim.Nanosecond, nil)
	k.At(0, func() {
		for i := 0; i < 50; i++ {
			a.Push(Beat{Flow: 1})
			b.Push(Beat{Flow: 2})
		}
	})
	k.Run()
	if m.Transfers() != 100 {
		t.Fatalf("transfers = %d", m.Transfers())
	}
	if m.FlowTransfers(1) != 50 || m.FlowTransfers(2) != 50 {
		t.Fatalf("flow counts = %d/%d", m.FlowTransfers(1), m.FlowTransfers(2))
	}
	for _, flow := range []int{-1, 0, 3, 1 << 20} {
		if n := m.FlowTransfers(flow); n != 0 {
			t.Fatalf("unseen flow %d counts %d", flow, n)
		}
	}
	// Strict alternation when both inputs are backlogged.
	prev := -1
	same := 0
	for {
		beat, ok := out.Pop()
		if !ok {
			break
		}
		if int(beat.Flow) == prev {
			same++
		}
		prev = int(beat.Flow)
	}
	if same != 0 {
		t.Fatalf("mux not alternating: %d repeats", same)
	}
}

func TestMuxSingleActiveInput(t *testing.T) {
	k := sim.NewKernel()
	a := NewFIFO("a", 10)
	b := NewFIFO("b", 10)
	out := NewFIFO("out", 100)
	NewMux(k, []*FIFO{a, b}, out, sim.Nanosecond, nil)
	k.At(0, func() {
		for i := 0; i < 5; i++ {
			a.Push(Beat{Flow: 1, Dest: int32(i)})
		}
	})
	end := k.Run()
	if out.Len() != 5 {
		t.Fatalf("out = %d", out.Len())
	}
	// Full rate despite idle second input: 5 beats, 1/ns, first immediate.
	if end != sim.Time(4*sim.Nanosecond) {
		t.Fatalf("end = %v", end)
	}
}

func TestRouterRoutesByDest(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 100)
	o1 := NewFIFO("o1", 100)
	o2 := NewFIFO("o2", 100)
	r := NewRouter(k, in, map[int]*FIFO{1: o1, 2: o2}, sim.Nanosecond, false)
	k.At(0, func() {
		in.Push(Beat{Dest: 1})
		in.Push(Beat{Dest: 2})
		in.Push(Beat{Dest: 1})
	})
	k.Run()
	if o1.Len() != 2 || o2.Len() != 1 {
		t.Fatalf("o1=%d o2=%d", o1.Len(), o2.Len())
	}
	if r.Transfers() != 3 {
		t.Fatalf("transfers=%d", r.Transfers())
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 10)
	o1 := NewFIFO("o1", 10)
	r := NewRouter(k, in, map[int]*FIFO{1: o1}, sim.Nanosecond, true)
	k.At(0, func() {
		in.Push(Beat{Dest: 99})
		in.Push(Beat{Dest: 1})
	})
	k.Run()
	if r.Dropped() != 1 || o1.Len() != 1 {
		t.Fatalf("dropped=%d o1=%d", r.Dropped(), o1.Len())
	}
}

// TestRouterUnroutableDests covers every way a Dest can miss the dense
// output table: a hole below the lowest key, a negative Dest, and one past
// the highest key. Each is dropped when dropping is on and panics when off.
func TestRouterUnroutableDests(t *testing.T) {
	for _, dest := range []int32{0, -1, 3, 1 << 30} {
		k := sim.NewKernel()
		in := NewFIFO("in", 10)
		o1 := NewFIFO("o1", 10)
		o2 := NewFIFO("o2", 10)
		r := NewRouter(k, in, map[int]*FIFO{1: o1, 2: o2}, sim.Nanosecond, true)
		k.At(0, func() {
			in.Push(Beat{Dest: dest})
			in.Push(Beat{Dest: 2})
		})
		k.Run()
		if r.Dropped() != 1 || o2.Len() != 1 || o1.Len() != 0 {
			t.Fatalf("dest %d: dropped=%d o1=%d o2=%d", dest, r.Dropped(), o1.Len(), o2.Len())
		}

		k = sim.NewKernel()
		in = NewFIFO("in", 10)
		NewRouter(k, in, map[int]*FIFO{1: NewFIFO("o1", 10)}, sim.Nanosecond, false)
		k.At(0, func() { in.Push(Beat{Dest: dest}) })
		func() {
			defer func() {
				if r := recover(); r != "axis: unroutable beat" {
					t.Errorf("dest %d: recovered %v, want the unroutable panic", dest, r)
				}
			}()
			k.Run()
		}()
	}
}

func TestRouterHeadOfLineBlocking(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 10)
	o1 := NewFIFO("o1", 1)
	o2 := NewFIFO("o2", 10)
	NewRouter(k, in, map[int]*FIFO{1: o1, 2: o2}, sim.Nanosecond, false)
	k.At(0, func() {
		in.Push(Beat{Dest: 1})
		in.Push(Beat{Dest: 1}) // blocks on full o1
		in.Push(Beat{Dest: 2}) // behind the blocked head
	})
	k.Run()
	if o1.Len() != 1 || o2.Len() != 0 || in.Len() != 2 {
		t.Fatalf("HOL blocking violated: o1=%d o2=%d in=%d", o1.Len(), o2.Len(), in.Len())
	}
	k.At(k.Now(), func() { o1.Pop() })
	k.Run()
	if o2.Len() != 1 || in.Len() != 0 {
		t.Fatalf("did not resume after unblock: o2=%d in=%d", o2.Len(), in.Len())
	}
}

func TestProbe(t *testing.T) {
	k := sim.NewKernel()
	p := NewProbe(k)
	k.At(100, func() { p.Observe(Beat{Bytes: 64, Born: 0}) })
	k.At(200, func() { p.Observe(Beat{Bytes: 64, Born: 100}) })
	k.Run()
	if p.Beats() != 2 || p.Bytes() != 128 {
		t.Fatalf("beats=%d bytes=%d", p.Beats(), p.Bytes())
	}
	if p.MeanAge() != 100 {
		t.Fatalf("mean age = %v", p.MeanAge())
	}
	want := 128.0 / sim.Duration(100).Seconds()
	if got := p.ThroughputBps(); got != want {
		t.Fatalf("throughput = %v, want %v", got, want)
	}
}

// Property: no beats are lost or duplicated through a pump chain, and FIFO
// order is preserved, for arbitrary arrival patterns.
func TestPumpConservationProperty(t *testing.T) {
	f := func(arrivals []uint8) bool {
		k := sim.NewKernel()
		in := NewFIFO("in", 4096)
		mid := NewFIFO("mid", 2)
		out := NewFIFO("out", 4096)
		NewPump(k, in, mid, sim.Nanosecond, nil)
		NewPump(k, mid, out, 2*sim.Nanosecond, nil)
		for i, a := range arrivals {
			i, a := i, a
			k.At(sim.Time(a)*sim.Time(sim.Nanosecond), func() {
				in.Push(Beat{Dest: int32(i)})
			})
		}
		k.Run()
		if int(out.Len()) != len(arrivals) {
			return false
		}
		// Beats pushed at the same instant keep index order; across
		// different instants order follows time. Verify no dup/loss.
		seen := make(map[int32]bool)
		for {
			b, ok := out.Pop()
			if !ok {
				break
			}
			if seen[b.Dest] {
				return false
			}
			seen[b.Dest] = true
		}
		return len(seen) == len(arrivals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
