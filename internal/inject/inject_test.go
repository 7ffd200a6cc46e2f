package inject

import (
	"math"
	"testing"
	"testing/quick"

	"thymesim/internal/axis"
	"thymesim/internal/sim"
)

func TestPeriodGateEquationOne(t *testing.T) {
	// PERIOD=5, cycle=4ns: transfers only at multiples of 20ns, one each.
	g := NewPeriodGate(5, DefaultFPGACycle)
	if g.SlotInterval() != 20*sim.Nanosecond {
		t.Fatalf("slot = %v", g.SlotInterval())
	}
	if n := g.Next(0); n != 0 {
		t.Fatalf("Next(0) = %v, want 0", n)
	}
	g.Commit(0)
	// Same slot consumed: must advance to 20ns.
	if n := g.Next(0); n != sim.Time(20*sim.Nanosecond) {
		t.Fatalf("Next after commit = %v, want 20ns", n)
	}
	// Mid-slot instant aligns up.
	if n := g.Next(sim.Time(25 * sim.Nanosecond)); n != sim.Time(40*sim.Nanosecond) {
		t.Fatalf("Next(25ns) = %v, want 40ns", n)
	}
}

func TestPeriodGatePeriodOnePassesEveryCycle(t *testing.T) {
	g := NewPeriodGate(1, DefaultFPGACycle)
	at := sim.Time(0)
	for i := 0; i < 10; i++ {
		n := g.Next(at)
		if n != at {
			t.Fatalf("iteration %d: Next(%v) = %v (PERIOD=1 must pass at cycle grid)", i, at, n)
		}
		g.Commit(n)
		at = n.Add(DefaultFPGACycle)
	}
}

func TestPeriodGateCommitOffGridPanics(t *testing.T) {
	g := NewPeriodGate(5, DefaultFPGACycle)
	defer func() {
		if recover() == nil {
			t.Error("off-grid commit did not panic")
		}
	}()
	g.Commit(sim.Time(3))
}

func TestPeriodGateDoubleCommitPanics(t *testing.T) {
	g := NewPeriodGate(5, DefaultFPGACycle)
	g.Commit(0)
	defer func() {
		if recover() == nil {
			t.Error("double commit did not panic")
		}
	}()
	g.Commit(0)
}

func TestPeriodGateBadArgsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPeriodGate(0, DefaultFPGACycle) },
		func() { NewPeriodGate(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: for any PERIOD and any ask sequence, committed instants are
// strictly increasing multiples of PERIOD*cycle with at most one commit per
// slot.
func TestPeriodGateSlotProperty(t *testing.T) {
	f := func(period8 uint8, asks []uint16) bool {
		period := int64(period8%100) + 1
		g := NewPeriodGate(period, DefaultFPGACycle)
		slot := int64(g.SlotInterval())
		var last sim.Time = -1
		now := sim.Time(0)
		for _, a := range asks {
			now = now.Add(sim.Duration(a))
			n := g.Next(now)
			if n < now {
				return false
			}
			if int64(n)%slot != 0 {
				return false
			}
			if n <= last {
				return false
			}
			g.Commit(n)
			last = n
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Integration: an injector arbiter gated by PERIOD drains a backlog at
// exactly one beat per PERIOD cycles — the saturated-throughput behaviour
// behind Fig. 3.
func TestPeriodGateThroughputThroughPriorityMux(t *testing.T) {
	const period = 10
	k := sim.NewKernel()
	in := axis.NewFIFO("in", 256)
	out := axis.NewFIFO("out", 256)
	g := NewPeriodGate(period, DefaultFPGACycle)
	axis.NewPriorityMux(k, []*axis.FIFO{in}, nil, out, DefaultFPGACycle, g)
	const n = 100
	k.At(0, func() {
		for i := 0; i < n; i++ {
			in.Push(axis.Beat{Dest: int32(i)})
		}
	})
	end := k.Run()
	if out.Len() != n {
		t.Fatalf("out = %d", out.Len())
	}
	want := sim.Time((n - 1) * period * int(DefaultFPGACycle))
	if end != want {
		t.Fatalf("drained at %v, want %v (1 beat per PERIOD cycles)", end, want)
	}
}

func TestConstantDist(t *testing.T) {
	c := Constant{D: 5 * sim.Microsecond}
	r := sim.NewRand(1)
	if c.Draw(r) != 5*sim.Microsecond || c.Mean() != 5*sim.Microsecond {
		t.Fatal("constant dist wrong")
	}
}

func TestExponentialDist(t *testing.T) {
	e := Exponential{MeanD: 1000}
	r := sim.NewRand(3)
	var sum float64
	for i := 0; i < 200000; i++ {
		sum += float64(e.Draw(r))
	}
	if mean := sum / 200000; math.Abs(mean-1000) > 30 {
		t.Fatalf("exp mean = %v", mean)
	}
}

func TestParetoDist(t *testing.T) {
	p := Pareto{Xm: 100, Alpha: 2.5}
	r := sim.NewRand(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		d := p.Draw(r)
		if d < 100 {
			t.Fatalf("Pareto below xm: %v", d)
		}
		sum += float64(d)
	}
	wantMean := 2.5 * 100 / 1.5
	if mean := sum / n; math.Abs(mean-wantMean) > 8 {
		t.Fatalf("pareto mean = %v, want %v", mean, wantMean)
	}
	if p.Alpha <= 1 {
		t.Fatal("unreachable")
	}
	heavy := Pareto{Xm: 100, Alpha: 0.9}
	if heavy.Mean() < sim.Duration(math.MaxInt64/4) {
		t.Fatal("alpha<=1 mean should be huge")
	}
}

func TestDistGateSpacing(t *testing.T) {
	g := NewDistGate(Constant{D: 100}, 10, sim.NewRand(6))
	if n := g.Next(0); n != 0 {
		t.Fatalf("first Next = %v", n)
	}
	g.Commit(0)
	if n := g.Next(0); n != 100 {
		t.Fatalf("spaced Next = %v, want 100", n)
	}
	g.Commit(100)
	if g.Draws() != 2 {
		t.Fatalf("draws = %d", g.Draws())
	}
	// minGap floors tiny draws.
	g2 := NewDistGate(Constant{D: 1}, 50, sim.NewRand(7))
	g2.Commit(0)
	if n := g2.Next(0); n != 50 {
		t.Fatalf("minGap not applied: %v", n)
	}
}

func TestGilbertElliottTransitions(t *testing.T) {
	g := NewGilbertElliott(Constant{D: 10}, Constant{D: 1000}, 0.5, 0.5, 1, sim.NewRand(8))
	var gaps []sim.Duration
	at := sim.Time(0)
	for i := 0; i < 2000; i++ {
		n := g.Next(at)
		g.Commit(n)
		next := g.Next(n)
		gaps = append(gaps, next.Sub(n))
		at = next
	}
	var small, large int
	for _, gp := range gaps {
		switch {
		case gp <= 10:
			small++
		case gp >= 1000:
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("GE never visited both states: small=%d large=%d", small, large)
	}
	if g.Transitions() == 0 {
		t.Fatal("no transitions recorded")
	}
}

func TestGilbertElliottStaysGoodWithZeroProb(t *testing.T) {
	g := NewGilbertElliott(Constant{D: 10}, Constant{D: 1000}, 0, 1, 1, sim.NewRand(9))
	at := sim.Time(0)
	for i := 0; i < 100; i++ {
		n := g.Next(at)
		g.Commit(n)
		at = g.Next(n)
	}
	if g.InBad() || g.Transitions() != 0 {
		t.Fatal("entered bad state with p=0")
	}
}

func TestTraceGateReplaysAndCycles(t *testing.T) {
	g := NewTraceGate([]sim.Duration{100, 200, 300}, 1)
	at := sim.Time(0)
	var gaps []sim.Duration
	for i := 0; i < 6; i++ {
		n := g.Next(at)
		g.Commit(n)
		next := g.Next(n)
		gaps = append(gaps, next.Sub(n))
		at = next
	}
	want := []sim.Duration{100, 200, 300, 100, 200, 300}
	for i, w := range want {
		if gaps[i] != w {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
}

func TestTraceGateValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTraceGate(nil, 0) },
		func() { NewTraceGate([]sim.Duration{-1}, 0) },
		func() { NewDistGate(nil, 0, sim.NewRand(1)) },
		func() { NewDistGate(Constant{}, 0, nil) },
		func() { NewGilbertElliott(Constant{}, Constant{}, -0.1, 0.5, 0, sim.NewRand(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDistNames(t *testing.T) {
	for _, d := range []Dist{
		Constant{D: sim.Duration(sim.Microsecond)},
		Exponential{MeanD: 3},
		Pareto{Xm: 4, Alpha: 2},
	} {
		if d.Name() == "" {
			t.Errorf("%T has empty name", d)
		}
	}
}
