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

// BenchmarkBreakerRemoteFill measures a single remote line fill through
// the full robustness stack — breaker admission gate, deadline-armed
// backend, ARQ tracking, outcome feedback into the breaker window — once
// every pool on the path is warm. Guards the steady-state overhead the
// deadline/breaker layers add to the datapath (allocs/op must stay 0).
func BenchmarkBreakerRemoteFill(b *testing.B) {
	cfg := cluster.DefaultConfig(1)
	arq := tfnic.DefaultARQConfig()
	cfg.ARQ = &arq
	cfg.FillDeadline = 10 * sim.Millisecond
	tb := cluster.NewTestbed(cfg)
	brk, err := control.NewBreaker(tb.K, control.DefaultBreakerConfig())
	if err != nil {
		b.Fatal(err)
	}
	tb.SetFillOutcomeObserver(brk.Record)
	h := tb.NewRemoteHierarchy()
	fills := 0
	done := func() { fills++ }
	next := uint64(0)
	fill := func() {
		if !brk.Allow() {
			b.Fatal("breaker tripped on a healthy lender")
		}
		h.Access(tb.RemoteAddr(next*ocapi.CacheLineSize), ocapi.CacheLineSize, false, done)
		next++
		tb.K.Run()
	}
	for i := 0; i < 512; i++ {
		fill()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
	b.StopTimer()
	if fills != 512+b.N {
		b.Fatalf("fills = %d", fills)
	}
}

// BenchmarkPoolChaos64 runs the rack-scale chaos campaign — 48 borrowers
// and 16 lenders on one switch (a 64-node rack), region churn, lender
// crash/restore, and audited traffic under the deadline+ARQ stack — once
// per iteration.
func BenchmarkPoolChaos64(b *testing.B) {
	o := benchOptions()
	cfg := PoolChaosConfig{Seed: 1, Borrowers: 48, Lenders: 16, Rounds: 6, TagSpace: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := o.RunPoolChaos(cfg)
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
	periods := []int64{1, 10, 50, 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.RunDelayValidation(periods)
	}
}

// BenchmarkValidationSweepParallel is the same sweep with one worker per
// CPU; the ratio to the serial variant is the sweep harness's speedup on
// this machine.
func BenchmarkValidationSweepParallel(b *testing.B) {
	o := benchOptions()
	o.Workers = 0 // GOMAXPROCS
	periods := []int64{1, 10, 50, 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.RunDelayValidation(periods)
	}
}
