package inject

import (
	"testing"

	"thymesim/internal/axis"
	"thymesim/internal/sim"
)

func beat(bytes int) axis.Beat { return axis.Beat{Bytes: int32(bytes)} }

func TestBitErrorGateCorruptionRate(t *testing.T) {
	// BER 1e-4 over 46-byte beats (368 bits): p ~= 1-(1-1e-4)^368 ~= 0.0361.
	g := NewBitErrorGate(nil, 1e-4, sim.NewRand(7))
	const n = 200000
	for i := 0; i < n; i++ {
		g.Fault(0, beat(46))
	}
	got := float64(g.Corrupted()) / n
	if got < 0.030 || got > 0.043 {
		t.Fatalf("corruption rate %g, want ~0.036", got)
	}
	if g.Judged() != n {
		t.Fatalf("judged = %d", g.Judged())
	}
}

func TestBitErrorGateZeroBER(t *testing.T) {
	g := NewBitErrorGate(nil, 0, sim.NewRand(1))
	for i := 0; i < 1000; i++ {
		if g.Fault(0, beat(174)) != axis.FaultNone {
			t.Fatal("BER 0 corrupted a beat")
		}
	}
}

func TestBitErrorGateDelegatesTiming(t *testing.T) {
	inner := NewPeriodGate(10, 1) // 10-unit slot grid
	g := NewBitErrorGate(inner, 1e-6, sim.NewRand(1))
	if got := g.Next(3); got != 10 {
		t.Fatalf("Next(3) = %v, want 10 (inner PERIOD grid)", got)
	}
	g.Commit(10)
	if got := g.Next(10); got != 20 {
		t.Fatalf("Next after commit = %v, want 20", got)
	}
}

func TestDropGateDropRate(t *testing.T) {
	g := NewDropGate(nil, 0.05, sim.NewRand(11))
	const n = 100000
	for i := 0; i < n; i++ {
		g.Fault(0, beat(46))
	}
	got := float64(g.Dropped()) / n
	if got < 0.045 || got > 0.055 {
		t.Fatalf("drop rate %g, want ~0.05", got)
	}
}

func TestFaultGatesCompose(t *testing.T) {
	// Drop over corruption over the PERIOD grid: every beat must be judged
	// by both fault models, and drop must win when both fire.
	rng := sim.NewRand(3)
	ber := NewBitErrorGate(NewPeriodGate(1, sim.Nanosecond), 0.9, rng.Split())
	drop := NewDropGate(ber, 0.5, rng.Split())
	const n = 10000
	drops, corrupts := 0, 0
	for i := 0; i < n; i++ {
		switch drop.Fault(0, beat(46)) {
		case axis.FaultDrop:
			drops++
		case axis.FaultCorrupt:
			corrupts++
		}
	}
	if drops < n/3 || drops > 2*n/3 {
		t.Fatalf("drops = %d / %d", drops, n)
	}
	if corrupts == 0 {
		t.Fatal("inner corruption never surfaced through the drop gate")
	}
	// Exactly the non-dropped beats were judged by the inner BER model.
	if ber.Judged() != uint64(n-drops) {
		t.Fatalf("inner judged = %d, want %d", ber.Judged(), n-drops)
	}
}

func TestFlapGateDeterministicWindows(t *testing.T) {
	mk := func() *FlapGate {
		return NewFlapGate(nil,
			Constant{D: 100 * sim.Nanosecond},
			Constant{D: 30 * sim.Nanosecond},
			sim.NewRand(5))
	}
	a, b := mk(), mk()
	for _, q := range []sim.Time{0, 50, 120, 131, 250, 800, 1200} {
		if ra, rb := a.Next(q), b.Next(q); ra != rb {
			t.Fatalf("Next(%v) nondeterministic: %v vs %v", q, ra, rb)
		}
	}
}

func TestFlapGateBlocksDownPhases(t *testing.T) {
	// Up 100 units, down 30: down phases are [100,130), [230,260), ...
	g := NewFlapGate(nil,
		Constant{D: 100},
		Constant{D: 30},
		sim.NewRand(5))
	if got := g.Next(50); got != 50 {
		t.Fatalf("up-phase Next = %v", got)
	}
	if got := g.Next(sim.Time(110)); got != 130 {
		t.Fatalf("down-phase Next = %v, want 130", got)
	}
	if g.Blocked() != 1 {
		t.Fatalf("blocked = %d", g.Blocked())
	}
	if !g.DownAt(240) {
		t.Fatal("DownAt(240) = false, want down phase [230,260)")
	}
	if g.DownAt(150) {
		t.Fatal("DownAt(150) = true inside an up phase")
	}
	if got := g.Next(245); got != 260 {
		t.Fatalf("second down phase Next = %v, want 260", got)
	}
	if g.Flaps() < 2 {
		t.Fatalf("flaps = %d", g.Flaps())
	}
}

func TestFlapGateIdempotentWithInnerGrid(t *testing.T) {
	// The inner PERIOD grid realigns the post-outage release; Next must
	// still be a fixpoint.
	g := NewFlapGate(NewPeriodGate(7, sim.Nanosecond),
		Constant{D: 40 * sim.Nanosecond},
		Constant{D: 25 * sim.Nanosecond},
		sim.NewRand(9))
	for _, q := range []sim.Time{0, 41, 60, 66, 120, 200, 500} {
		r1 := g.Next(q)
		r2 := g.Next(r1)
		if r1 != r2 {
			t.Fatalf("Next not idempotent at %v: %v then %v", q, r1, r2)
		}
	}
}

func TestFaultGateValidation(t *testing.T) {
	rng := sim.NewRand(1)
	for name, fn := range map[string]func(){
		"negative ber":  func() { NewBitErrorGate(nil, -0.1, rng) },
		"ber one":       func() { NewBitErrorGate(nil, 1, rng) },
		"nil ber rng":   func() { NewBitErrorGate(nil, 0.1, nil) },
		"negative drop": func() { NewDropGate(nil, -0.1, rng) },
		"nil drop rng":  func() { NewDropGate(nil, 0.1, nil) },
		"nil flap dist": func() { NewFlapGate(nil, nil, Constant{D: 1}, rng) },
		"nil flap rng":  func() { NewFlapGate(nil, Constant{D: 1}, Constant{D: 1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Injector-level integration: a DropGate on the injector arbiter loses
// beats without stalling the pipeline, and the drop counter matches what
// went missing.
func TestPriorityMuxDropsWithFaultGate(t *testing.T) {
	k := sim.NewKernel()
	in := axis.NewFIFO("in", 64)
	out := axis.NewFIFO("out", 64)
	g := NewDropGate(nil, 0.3, sim.NewRand(17))
	p := axis.NewPriorityMux(k, []*axis.FIFO{in}, nil, out, sim.Nanosecond, g)
	const n = 50
	for i := 0; i < n; i++ {
		in.Push(axis.Beat{Bytes: 46})
	}
	k.Run()
	if in.Len() != 0 {
		t.Fatalf("injector stalled with %d beats queued", in.Len())
	}
	if got := out.Len() + int(p.Dropped()); got != n {
		t.Fatalf("forwarded %d + dropped %d != %d", out.Len(), p.Dropped(), n)
	}
	if p.Dropped() == 0 {
		t.Fatal("no drops at p=0.3 over 50 beats")
	}
}

// Injector-level integration: corrupted beats arrive marked.
func TestPriorityMuxCorruptsWithFaultGate(t *testing.T) {
	k := sim.NewKernel()
	in := axis.NewFIFO("in", 64)
	out := axis.NewFIFO("out", 64)
	g := NewBitErrorGate(nil, 0.01, sim.NewRand(23))
	p := axis.NewPriorityMux(k, []*axis.FIFO{in}, nil, out, sim.Nanosecond, g)
	const n = 50
	for i := 0; i < n; i++ {
		in.Push(axis.Beat{Bytes: 174})
	}
	k.Run()
	if out.Len() != n {
		t.Fatalf("forwarded %d, want %d (corruption must not drop)", out.Len(), n)
	}
	marked := 0
	for {
		b, ok := out.Pop()
		if !ok {
			break
		}
		if b.Corrupt {
			marked++
		}
	}
	if uint64(marked) != p.Corrupted() || marked == 0 {
		t.Fatalf("marked %d, injector counted %d", marked, p.Corrupted())
	}
}
