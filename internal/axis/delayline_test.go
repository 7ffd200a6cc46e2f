package axis

import (
	"testing"

	"thymesim/internal/sim"
)

func TestDelayLineFixedLatency(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 8)
	out := NewFIFO("out", 8)
	d := NewDelayLine(k, in, out, 100*sim.Nanosecond)
	var at []sim.Time
	out.OnData(func() { at = append(at, k.Now()) })
	k.At(0, func() { in.Push(Beat{Dest: 1}) })
	k.At(10, func() { in.Push(Beat{Dest: 2}) })
	k.Run()
	if len(at) != 2 {
		t.Fatalf("deliveries = %d", len(at))
	}
	if at[0] != sim.Time(100*sim.Nanosecond) || at[1] != sim.Time(10+100*int(sim.Nanosecond)) {
		t.Fatalf("delivery times = %v", at)
	}
	if d.Moved() != 2 {
		t.Fatalf("moved = %d", d.Moved())
	}
}

func TestDelayLinePipelines(t *testing.T) {
	// Unlike a Pump, a DelayLine overlaps beats: n beats injected at t=0
	// all arrive at t=delay.
	k := sim.NewKernel()
	in := NewFIFO("in", 16)
	out := NewFIFO("out", 16)
	NewDelayLine(k, in, out, sim.Duration(sim.Microsecond))
	k.At(0, func() {
		for i := 0; i < 10; i++ {
			in.Push(Beat{Dest: int32(i)})
		}
	})
	end := k.Run()
	if end != sim.Time(sim.Microsecond) {
		t.Fatalf("end = %v, want 1us (full pipelining)", end)
	}
	if out.Len() != 10 {
		t.Fatalf("out = %d", out.Len())
	}
	// Order preserved.
	for i := 0; i < 10; i++ {
		b, _ := out.Pop()
		if int(b.Dest) != i {
			t.Fatalf("order violated at %d: %d", i, b.Dest)
		}
	}
}

func TestDelayLineBackpressureWithInflight(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 16)
	out := NewFIFO("out", 2)
	NewDelayLine(k, in, out, sim.Duration(sim.Microsecond))
	k.At(0, func() {
		for i := 0; i < 8; i++ {
			in.Push(Beat{Dest: int32(i)})
		}
	})
	k.Run()
	// Only out's capacity may be launched: 2 delivered, 6 held upstream.
	if out.Len() != 2 || in.Len() != 6 {
		t.Fatalf("out=%d in=%d", out.Len(), in.Len())
	}
	k.At(k.Now(), func() { out.Pop(); out.Pop() })
	k.Run()
	if out.Len() != 2 || in.Len() != 4 {
		t.Fatalf("resume: out=%d in=%d", out.Len(), in.Len())
	}
}

func TestDelayLineZeroDelay(t *testing.T) {
	k := sim.NewKernel()
	in := NewFIFO("in", 4)
	out := NewFIFO("out", 4)
	NewDelayLine(k, in, out, 0)
	k.At(5, func() { in.Push(Beat{}) })
	end := k.Run()
	if end != 5 || out.Len() != 1 {
		t.Fatalf("end=%v out=%d", end, out.Len())
	}
}

func TestDelayLineNegativePanics(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewDelayLine(k, NewFIFO("a", 1), NewFIFO("b", 1), -1)
}
