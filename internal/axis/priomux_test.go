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
	m := NewPriorityMux(k, []*FIFO{hi, lo}, nil, out, sim.Nanosecond, nil)
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
	NewPriorityMux(k, []*FIFO{hi, lo}, nil, out, sim.Nanosecond, gate)
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
	NewPriorityMux(k, []*FIFO{hi}, nil, out, sim.Nanosecond, nil)
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
			t.Error("no classes did not panic")
		}
	}()
	NewPriorityMux(k, nil, NewFIFO("pass", 1), NewFIFO("out", 1), 0, nil)
}

// TestPriorityMuxAlternatesWithBypass: with requests and bypass beats both
// backlogged, the arbiter takes them in turn, starting with the bypass,
// one beat per cycle in total.
func TestPriorityMuxAlternatesWithBypass(t *testing.T) {
	k := sim.NewKernel()
	req := NewFIFO("req", 16)
	pass := NewFIFO("pass", 16)
	out := NewFIFO("out", 64)
	m := NewPriorityMux(k, []*FIFO{req}, pass, out, 4*sim.Nanosecond, nil)
	var at []sim.Time
	out.OnPush(func(Beat) { at = append(at, k.Now()) })
	k.At(0, func() {
		for i := 0; i < 4; i++ {
			req.Push(Beat{Flow: 1})
			pass.Push(Beat{Flow: 2})
		}
	})
	k.Run()
	for i := range 8 {
		b, _ := out.Pop()
		if want := int32(2 - i%2); b.Flow != want {
			t.Fatalf("beat %d from flow %d, want %d", i, b.Flow, want)
		}
		if want := sim.Time(i) * sim.Time(4*sim.Nanosecond); at[i] != want {
			t.Fatalf("beat %d left at %v, want %v", i, at[i], want)
		}
	}
	if m.Transfers() != 4 || m.ClassTransfers(0) != 4 {
		t.Fatalf("injector transfers = %d, class 0 = %d; bypass beats must not count", m.Transfers(), m.ClassTransfers(0))
	}
}

// TestPriorityMuxGateAtRelease: the gate is asked and committed at the
// instant a request leaves — not when it queues — and bypass beats
// neither wait for the gate nor commit it, even when one arrives while
// the arbiter is waiting on the gate for a request.
func TestPriorityMuxGateAtRelease(t *testing.T) {
	k := sim.NewKernel()
	req := NewFIFO("req", 16)
	pass := NewFIFO("pass", 16)
	out := NewFIFO("out", 64)
	gate := &recordGate{slotGate: slotGate{interval: 100 * sim.Nanosecond}}
	NewPriorityMux(k, []*FIFO{req}, pass, out, sim.Nanosecond, gate)
	left := map[int32]sim.Time{}
	out.OnPush(func(b Beat) { left[b.Flow] = k.Now() })
	k.At(0, func() {
		req.Push(Beat{Flow: 1})
		req.Push(Beat{Flow: 2})
	})
	k.At(sim.Time(30*sim.Nanosecond), func() { pass.Push(Beat{Flow: 3, Dest: 9}) })
	k.Run()
	want := map[int32]sim.Time{1: 0, 2: sim.Time(100 * sim.Nanosecond), 3: sim.Time(30 * sim.Nanosecond)}
	for flow, at := range want {
		if left[flow] != at {
			t.Fatalf("flow %d left at %v, want %v (all: %v)", flow, left[flow], at, left)
		}
	}
	if len(gate.commits) != 2 || gate.commits[0] != 0 || gate.commits[1] != sim.Time(100*sim.Nanosecond) {
		t.Fatalf("gate commits = %v, want [0 100ns]", gate.commits)
	}
}

// TestPriorityMuxFaulterCounts: the gate's fault model sees every
// released request once; a dropped one uses the injector's slot but not
// the output's, so a bypass beat still leaves that cycle.
func TestPriorityMuxFaulterCounts(t *testing.T) {
	k := sim.NewKernel()
	req := NewFIFO("req", 16)
	pass := NewFIFO("pass", 16)
	out := NewFIFO("out", 64)
	// Release i: drop every third (i = 0, 3, 6), corrupt every other one
	// of the rest.
	gate := &faultGate{verdict: func(i int) FaultAction {
		switch {
		case i%3 == 0:
			return FaultDrop
		case i%2 == 0:
			return FaultCorrupt
		}
		return FaultNone
	}}
	m := NewPriorityMux(k, []*FIFO{req}, pass, out, 4*sim.Nanosecond, gate)
	k.At(0, func() {
		for range 8 {
			req.Push(Beat{Flow: 1})
		}
	})
	k.At(sim.Time(sim.Nanosecond), func() { pass.Push(Beat{Flow: 2}) })
	var at []sim.Time
	out.OnPush(func(b Beat) {
		if b.Flow == 2 {
			at = append(at, k.Now())
		}
	})
	k.Run()
	if m.Transfers() != 8 || m.Dropped() != 3 || m.Corrupted() != 2 || gate.calls != 8 {
		t.Fatalf("transfers=%d dropped=%d corrupted=%d fault calls=%d", m.Transfers(), m.Dropped(), m.Corrupted(), gate.calls)
	}
	corrupt := 0
	for {
		b, ok := out.Pop()
		if !ok {
			break
		}
		if b.Corrupt {
			corrupt++
		}
	}
	if out.Pushed() != 6 || corrupt != 2 {
		t.Fatalf("out pushed %d with %d corrupt, want 5 requests + 1 bypass, 2 corrupt", out.Pushed(), corrupt)
	}
	// Release 0 at t=0 was dropped, so the output stayed free and the
	// bypass beat arriving at 1ns left at once, inside that cycle.
	if len(at) != 1 || at[0] != sim.Time(sim.Nanosecond) {
		t.Fatalf("bypass beat left at %v, want 1ns", at)
	}
}

// recordGate is a slotGate that logs its commits.
type recordGate struct {
	slotGate
	commits []sim.Time
}

func (g *recordGate) Commit(t sim.Time) {
	g.commits = append(g.commits, t)
	g.slotGate.Commit(t)
}

// faultGate is an always-open gate whose fault model returns verdict(i)
// for the i-th released beat.
type faultGate struct {
	PassGate
	verdict func(i int) FaultAction
	calls   int
}

func (g *faultGate) Fault(sim.Time, Beat) FaultAction {
	g.calls++
	return g.verdict(g.calls - 1)
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
