package sim

import "testing"

// BenchmarkKernelEventThroughput measures raw event dispatch rate — the
// ceiling on every simulation in the repository. Steady-state scheduling
// must report 0 allocs/op (heap growth is amortized away by the warm slice).
func BenchmarkKernelEventThroughput(b *testing.B) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(Nanosecond, tick)
		}
	}
	k.After(Nanosecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// selfTick is a handler that reschedules itself until it has run n times.
type selfTick struct {
	k    *Kernel
	n, N int
}

func (t *selfTick) Handle(uint64) {
	t.n++
	if t.n < t.N {
		t.k.AfterH(Nanosecond, t, 0)
	}
}

// BenchmarkKernelHandlerThroughput is KernelEventThroughput on the handler
// path the datapath uses (AfterH), so the two differ only by the sim.Func
// adapter the closure path goes through.
func BenchmarkKernelHandlerThroughput(b *testing.B) {
	k := NewKernel()
	t := &selfTick{k: k, N: b.N}
	k.AfterH(Nanosecond, t, 0)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelHeapChurn measures scheduling with a deep pending queue.
func BenchmarkKernelHeapChurn(b *testing.B) {
	k := NewKernel()
	const depth = 1024
	for i := 0; i < depth; i++ {
		k.At(Time(1_000_000+i), func() {})
	}
	done := 0
	var tick func()
	tick = func() {
		done++
		if done < b.N {
			k.After(1, tick)
		}
	}
	k.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkCreditPoolCycle measures acquire/release round trips.
func BenchmarkCreditPoolCycle(b *testing.B) {
	k := NewKernel()
	p := NewCreditPool(k, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.TryAcquire() {
			b.Fatal("pool empty")
		}
		p.Release()
	}
}

// BenchmarkRandUint64 measures the seeded generator.
func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

// benchSink absorbs timer firings in the wheel benchmarks.
type benchSink struct{ fired uint64 }

func (s *benchSink) Handle(uint64) { s.fired++ }

// BenchmarkTimerWheelArmCancel measures the cancellable-timer fast path:
// arm a deadline on the wheel and cancel it before it fires — the exact
// lifecycle of the ARQ/deadline population on every healthy transaction.
// Both operations are O(1) and the warmed cycle must report 0 allocs/op.
func BenchmarkTimerWheelArmCancel(b *testing.B) {
	k := NewKernel()
	s := &benchSink{}
	for i := 0; i < 256; i++ { // warm the cell pool
		k.CancelTimer(k.ArmTimer(Duration(i+1)*Microsecond, s, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.CancelTimer(k.ArmTimer(100*Microsecond, s, 0))
	}
}

// BenchmarkTimerWheelFire measures timers that run to expiry: arm,
// cascade through the wheel, collect into the dispatch heap, fire.
func BenchmarkTimerWheelFire(b *testing.B) {
	k := NewKernel()
	s := &benchSink{}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.ArmTimer(10*Microsecond, s, 0)
			k.After(10*Microsecond, tick)
		}
	}
	k.ArmTimer(10*Microsecond, s, 0)
	k.After(10*Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	if s.fired != uint64(b.N) {
		b.Fatalf("fired %d of %d", s.fired, b.N)
	}
}
