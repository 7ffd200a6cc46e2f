package core

import (
	"testing"

	"thymesim/internal/cluster"
	"thymesim/internal/control"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

// benchOptions shrinks the workloads so one sweep point is cheap enough to
// iterate.
func benchOptions() Options {
	o := Default()
	o.StreamElements = 1 << 12
	return o
}

// BenchmarkStreamRemotePoint measures one validation sweep point end to
// end: testbed construction plus a full STREAM run over the simulated
// datapath. This is the unit of work the sweep pool schedules.
func BenchmarkStreamRemotePoint(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := o.StreamRemote(50)
		if m.BandwidthBps <= 0 {
			b.Fatal("no bandwidth measured")
		}
	}
}

// breakerFillLoop builds the full robustness stack on a testbed —
// breaker admission gate, deadline-armed backend, ARQ tracking, outcome
// feedback into the breaker window — and returns a function driving one
// remote line fill through it, plus its completion count.
func breakerFillLoop(tb testing.TB) (fill func(), fills *int) {
	cfg := cluster.DefaultConfig(1)
	arq := tfnic.DefaultARQConfig()
	cfg.ARQ = &arq
	cfg.FillDeadline = 10 * sim.Millisecond
	bed := cluster.NewTestbed(cfg)
	brk, err := control.NewBreaker(bed.K, control.DefaultBreakerConfig())
	if err != nil {
		tb.Fatal(err)
	}
	bed.SetFillOutcomeObserver(brk.Record)
	h := bed.NewRemoteHierarchy()
	fills = new(int)
	done := func() { *fills++ }
	next := uint64(0)
	fill = func() {
		if !brk.Allow() {
			tb.Fatal("breaker tripped on a healthy lender")
		}
		h.Access(bed.RemoteAddr(next*ocapi.CacheLineSize), ocapi.CacheLineSize, false, done)
		next++
		bed.K.Run()
	}
	return fill, fills
}

// BenchmarkBreakerRemoteFill measures a single remote line fill through
// the full robustness stack once every pool on the path is warm. Guards
// the steady-state overhead the deadline/breaker layers add to the
// datapath; TestBreakerRemoteFillZeroAlloc holds its 0 allocs/op.
func BenchmarkBreakerRemoteFill(b *testing.B) {
	fill, fills := breakerFillLoop(b)
	for i := 0; i < 512; i++ {
		fill()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
	b.StopTimer()
	if *fills != 512+b.N {
		b.Fatalf("fills = %d", *fills)
	}
}

func TestBreakerRemoteFillZeroAlloc(t *testing.T) {
	fill, fills := breakerFillLoop(t)
	for i := 0; i < 512; i++ {
		fill()
	}
	if n := testing.AllocsPerRun(200, fill); n != 0 {
		t.Errorf("warm breaker-gated remote fill: %.2f allocs/op, want 0", n)
	}
	if *fills != 512+201 {
		t.Fatalf("fills = %d", *fills)
	}
}

// poolChaos64 is BenchmarkPoolChaos64's campaign.
var poolChaos64 = PoolChaosConfig{Seed: 1, Borrowers: 48, Lenders: 16, Rounds: 6, TagSpace: 64}

// validationPeriods is the validation-sweep benchmarks' PERIOD grid.
var validationPeriods = []int64{1, 10, 50, 100}

// BenchmarkPoolChaos64 runs the rack-scale chaos campaign — 48 borrowers
// and 16 lenders on one switch (a 64-node rack), region churn, lender
// crash/restore, and audited traffic under the deadline+ARQ stack — once
// per iteration.
func BenchmarkPoolChaos64(b *testing.B) {
	o := benchOptions()
	cfg := poolChaos64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := o.RunPoolChaos(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !r.OK() {
			b.Fatal(r.Violations)
		}
	}
}

// BenchmarkValidationSweepSerial is the Figs. 2-3 sweep with the pool
// disabled: the serial reference the parallel variant is compared against.
func BenchmarkValidationSweepSerial(b *testing.B) {
	o := benchOptions()
	o.Workers = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.RunDelayValidation(validationPeriods)
	}
}

// BenchmarkValidationSweepParallel is the same sweep with one worker per
// CPU; the ratio to the serial variant is the sweep harness's speedup on
// this machine.
func BenchmarkValidationSweepParallel(b *testing.B) {
	o := benchOptions()
	o.Workers = 0 // GOMAXPROCS
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.RunDelayValidation(validationPeriods)
	}
}

// TestBenchmarkAllocBounds holds the allocs/op bounds recorded for the
// end-to-end benchmarks above, so an allocation regression fails tier-1
// whatever host runs it. The parallel sweep pins two workers:
// AllocsPerRun measures at GOMAXPROCS 1, where Workers 0 would mean one
// worker and skip the pool.
func TestBenchmarkAllocBounds(t *testing.T) {
	o := benchOptions()
	serial, parallel := o, o
	serial.Workers, parallel.Workers = 1, 2
	for _, tc := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"StreamRemotePoint", 1144, func() { o.StreamRemote(50) }},
		{"PoolChaos64", 40272, func() {
			r, err := o.RunPoolChaos(poolChaos64)
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				t.Fatal(r.Violations)
			}
		}},
		{"ValidationSweepSerial", 4835, func() { serial.RunDelayValidation(validationPeriods) }},
		{"ValidationSweepParallel", 4835, func() { parallel.RunDelayValidation(validationPeriods) }},
	} {
		n := testing.AllocsPerRun(2, tc.run)
		t.Logf("%s: %.0f allocs/op (bound %.0f)", tc.name, n, tc.bound)
		if n > tc.bound {
			t.Errorf("%s: %.0f allocs/op over the bound %.0f", tc.name, n, tc.bound)
		}
	}
}
