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

// fixedDelayTick is one of BenchmarkKernelFixedDelays' handlers: it
// reschedules itself with the next of rackDelays until the kernel stops.
type fixedDelayTick struct {
	k    *Kernel
	i    int
	n    *int
	stop int
}

func (t *fixedDelayTick) Handle(uint64) {
	if *t.n++; *t.n == t.stop {
		t.k.Stop()
		return
	}
	t.i++
	t.k.AfterH(rackDelays[t.i&7], t, 0)
}

// BenchmarkKernelFixedDelays measures dispatch in the shape of a
// rack-scale pool: 512 events pending, nearly all scheduled with a handful
// of fixed delays (rackDelays, rack-churn's most used). The other kernel
// benchmarks use one delay at depth 1 or a random one, which the
// fixed-delay lanes never see; this is the shape they are for.
func BenchmarkKernelFixedDelays(b *testing.B) {
	k := NewKernel()
	n := 0
	for i := 0; i < 512; i++ {
		t := &fixedDelayTick{k: k, i: i, n: &n, stop: b.N}
		k.AfterH(rackDelays[i&7], t, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// ownerTick is one of BenchmarkKernelOwnerSources' owners. Each dispatch
// schedules the owner's next event after a delay that varies from event
// to event, but never before its previous one, as a cable's arrivals wait
// for the wire: in its source, or through AtH for the heap variant.
type ownerTick struct {
	k    *Kernel
	src  Source
	heap bool
	tail Time
	x    uint64 // LCG state drawing the delay
	n    *int
	stop int
}

func (o *ownerTick) Handle(uint64) {
	if *o.n++; *o.n == o.stop {
		o.k.Stop()
		return
	}
	o.x = o.x*6364136223846793005 + 1442695040888963407
	at := o.k.Now().Add(100*Nanosecond + Duration(o.x>>56)*Nanosecond/2)
	if at < o.tail {
		at = o.tail
	}
	o.tail = at
	if o.heap {
		o.k.AtH(at, o, 0)
	} else {
		o.src.AtH(at, o, 0)
	}
}

// BenchmarkKernelOwnerSources measures dispatch in the shape of a rack's
// cables: 64 owners with 8 events each in flight, every event at its own
// delay, which no fixed-delay lane can hold. "sources" keeps each owner's
// events in its own Source, one heap entry per owner; "heap" schedules
// the same events with AtH, one heap entry per event.
func BenchmarkKernelOwnerSources(b *testing.B) {
	for _, heap := range []bool{false, true} {
		name := "sources"
		if heap {
			name = "heap"
		}
		b.Run(name, func(b *testing.B) {
			k := NewKernel()
			n := 0
			for i := 0; i < 64; i++ {
				o := &ownerTick{k: k, src: k.NewSource(), heap: heap, x: uint64(i), n: &n, stop: b.N}
				for j := 0; j < 8; j++ {
					o.Handle(0)
				}
			}
			n = 0
			b.ReportAllocs()
			b.ResetTimer()
			k.Run()
		})
	}
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

// TestBenchmarkLoopsAllocateNothing holds the 0 allocs/op of the loops
// BenchmarkKernelHeapChurn, BenchmarkCreditPoolCycle and
// BenchmarkRandUint64 time; TestSchedulePathZeroAlloc holds
// BenchmarkKernelEventThroughput's.
func TestBenchmarkLoopsAllocateNothing(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 1024; i++ { // a deep pending queue, far in the future
		k.At(Time(Second)+Time(i), func() {})
	}
	tick := func() {}
	p := NewCreditPool(k, 16)
	r := NewRand(1)
	var sink uint64
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"heap churn", func() {
			k.After(1, tick)
			k.RunUntil(k.Now().Add(1))
		}},
		{"credit pool cycle", func() {
			if !p.TryAcquire() {
				t.Fatal("pool empty")
			}
			p.Release()
		}},
		{"rand", func() { sink ^= r.Uint64() }},
	} {
		if n := testing.AllocsPerRun(1000, tc.op); n != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, n)
		}
	}
	if k.Pending() != 1024 {
		t.Fatalf("churn disturbed the pending queue: %d pending", k.Pending())
	}
}
