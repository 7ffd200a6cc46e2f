package axis

import (
	"testing"

	"thymesim/internal/sim"
)

func TestPriorityMuxStrictOrder(t *testing.T) {
	k := sim.NewKernel()
	hi := NewFIFO("hi", 64)
	lo := NewFIFO("lo", 64)
	out := NewFIFO("out", 256)
	m := NewPriorityMux(k, []*FIFO{hi, lo}, out, sim.Nanosecond, nil)
	k.At(0, func() {
		for i := 0; i < 10; i++ {
			lo.Push(Beat{Flow: 2})
		}
		for i := 0; i < 5; i++ {
			hi.Push(Beat{Flow: 1})
		}
	})
	k.Run()
	if m.Transfers() != 15 {
		t.Fatalf("transfers = %d", m.Transfers())
	}
	// After the first low beat (already in service race), all high beats
	// must drain before remaining low ones.
	var order []int
	for {
		b, ok := out.Pop()
		if !ok {
			break
		}
		order = append(order, int(b.Flow))
	}
	lastHi := -1
	firstLoAfterStart := -1
	for i, f := range order {
		if f == 1 {
			lastHi = i
		}
		if f == 2 && firstLoAfterStart == -1 && i > 0 {
			firstLoAfterStart = i
		}
	}
	// Count low beats before the last high beat: at most 1 (the head
	// transferred in the same instant the high beats arrived).
	loBefore := 0
	for _, f := range order[:lastHi] {
		if f == 2 {
			loBefore++
		}
	}
	if loBefore > 1 {
		t.Fatalf("low class not preempted: order %v", order)
	}
	if m.ClassTransfers(0) != 5 || m.ClassTransfers(1) != 10 {
		t.Fatalf("class counts = %d/%d", m.ClassTransfers(0), m.ClassTransfers(1))
	}
}

func TestPriorityMuxGated(t *testing.T) {
	// With a gate limiting slots, every free slot must go to the high
	// class while it has backlog.
	k := sim.NewKernel()
	hi := NewFIFO("hi", 64)
	lo := NewFIFO("lo", 64)
	out := NewFIFO("out", 256)
	gate := &slotGate{interval: 100 * sim.Nanosecond}
	NewPriorityMux(k, []*FIFO{hi, lo}, out, sim.Nanosecond, gate)
	k.At(0, func() {
		for i := 0; i < 4; i++ {
			lo.Push(Beat{Flow: 2})
			hi.Push(Beat{Flow: 1})
		}
	})
	k.Run()
	var order []int
	for {
		b, ok := out.Pop()
		if !ok {
			break
		}
		order = append(order, int(b.Flow))
	}
	want := []int{1, 1, 1, 1, 2, 2, 2, 2}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want all high first", order)
		}
	}
}

func TestPriorityMuxBackpressure(t *testing.T) {
	k := sim.NewKernel()
	hi := NewFIFO("hi", 8)
	out := NewFIFO("out", 1)
	NewPriorityMux(k, []*FIFO{hi}, out, sim.Nanosecond, nil)
	k.At(0, func() {
		for i := 0; i < 4; i++ {
			hi.Push(Beat{})
		}
	})
	k.Run()
	if out.Len() != 1 || hi.Len() != 3 {
		t.Fatalf("out=%d hi=%d", out.Len(), hi.Len())
	}
}

func TestPriorityMuxNeedsInputs(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("no inputs did not panic")
		}
	}()
	NewPriorityMux(k, nil, NewFIFO("out", 1), 0, nil)
}

// slotGate permits one transfer per fixed interval, grid-aligned.
type slotGate struct {
	interval sim.Duration
	last     sim.Time
	used     bool
}

func (g *slotGate) Next(now sim.Time) sim.Time {
	iv := sim.Time(g.interval)
	idx := now / iv
	if idx*iv < now {
		idx++
	}
	slot := idx * iv
	if g.used && slot <= g.last {
		slot = g.last + iv
	}
	return slot
}

func (g *slotGate) Commit(t sim.Time) {
	g.last = t
	g.used = true
}
