package obs

import (
	"testing"

	"thymesim/internal/sim"
)

// TestDisabledTracerPathAllocatesNothing pins the design contract that
// lets the datapath call the tracer unconditionally: with a nil tracer
// the whole Start/Enter/Finish sequence must not allocate.
func TestDisabledTracerPathAllocatesNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Start(KindRead, 0x1000)
		tr.Enter(id, StageMSHR)
		tr.Enter(id, StageDRAMAccess)
		tr.Finish(id)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %v bytes/op, want 0", allocs)
	}
}

// TestEnabledSpanPathsAllocateNothing holds the 0 allocs/op of
// BenchmarkSpanRecordFinish and BenchmarkSpanSampled: with the span pool
// warm and retention capped, a recorded or sampled-out span allocates
// nothing.
func TestEnabledSpanPathsAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"record", Config{MaxRetained: 1}},
		{"sampled", Config{Sample: 100, MaxRetained: 1}},
	} {
		tr := New(sim.NewKernel(), tc.cfg)
		addr := uint64(0)
		span := func() {
			id := tr.Start(KindRead, addr)
			addr++
			tr.Enter(id, StageMSHR)
			tr.Enter(id, StagePortTx)
			tr.Enter(id, StageLinkRequest)
			tr.Enter(id, StageDRAMAccess)
			tr.Enter(id, StageLinkResponse)
			tr.Finish(id)
		}
		for i := 0; i < 1000; i++ {
			span()
		}
		if n := testing.AllocsPerRun(1000, span); n != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", tc.name, n)
		}
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.Start(KindRead, uint64(i))
		tr.Enter(id, StageMSHR)
		tr.Finish(id)
	}
}

// BenchmarkSpanRecordFinish measures the enabled steady state: the span
// pool is warm (slots recycle), retention is capped, so per-span cost is
// the aggregation arithmetic.
func BenchmarkSpanRecordFinish(b *testing.B) {
	k := sim.NewKernel()
	tr := New(k, Config{MaxRetained: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tr.Start(KindRead, uint64(i))
		tr.Enter(id, StageMSHR)
		tr.Enter(id, StagePortTx)
		tr.Enter(id, StageLinkRequest)
		tr.Enter(id, StageDRAMAccess)
		tr.Enter(id, StageLinkResponse)
		tr.Finish(id)
	}
}

func BenchmarkSpanSampled(b *testing.B) {
	k := sim.NewKernel()
	tr := New(k, Config{Sample: 100, MaxRetained: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tr.Start(KindRead, uint64(i))
		tr.Enter(id, StageMSHR)
		tr.Finish(id)
	}
}
