package axis

import (
	"testing"

	"thymesim/internal/sim"
)

// BenchmarkPumpChain measures beats/second through a three-stage AXI
// pipeline — the unit of datapath simulation cost.
func BenchmarkPumpChain(b *testing.B) {
	k := sim.NewKernel()
	a := NewFIFO("a", 4096)
	m1 := NewFIFO("m1", 64)
	m2 := NewFIFO("m2", 64)
	out := NewFIFO("out", b.N+1)
	NewPump(k, a, m1, sim.Nanosecond)
	NewPump(k, m1, m2, sim.Nanosecond)
	NewPump(k, m2, out, sim.Nanosecond)
	fed := 0
	var feed func()
	feed = func() {
		for a.Space() > 0 && fed < b.N {
			a.Push(Beat{Bytes: 64})
			fed++
		}
		if fed < b.N {
			k.After(sim.Microsecond, feed)
		}
	}
	k.At(0, feed)
	b.ResetTimer()
	k.Run()
	if int(out.Len()) != b.N {
		b.Fatalf("moved %d/%d", out.Len(), b.N)
	}
}

// BenchmarkFIFOPushPop measures the raw queue operations.
func BenchmarkFIFOPushPop(b *testing.B) {
	f := NewFIFO("f", 1024)
	beat := Beat{Bytes: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Push(beat)
		f.Pop()
	}
}
