package metricsplane

import (
	"testing"

	"thymesim/internal/sim"
)

// The plane's contract is that observing is free when disabled and
// allocation-free when enabled: a nil histogram or zero recorder costs
// one test, a live one only atomics (plus a fixed-ring recorder write on
// rare events), and a steady publishing pass only reads its series.
// TestHotPathAllocs enforces the alloc half of the contract; the
// benchmarks quantify the per-op cost.

// benchCollector publishes n counters and n gauges per pass, like a pool
// collector over n nodes.
func benchCollector(n int, v *uint64) func(*Publisher) {
	return func(pb *Publisher) {
		for i := 0; i < n; i++ {
			l := ForNode(i)
			pb.Counter("thymesim_bench_total", "b", l, *v)
			pb.Gauge("thymesim_bench_gauge", "g", l, float64(*v))
		}
	}
}

func TestHotPathAllocs(t *testing.T) {
	p := New()
	lat := p.FillLatency(0, "")
	rec := p.RecorderFor(0)
	var nilLat *Histogram
	k := sim.NewKernel()
	var v uint64
	p.Collect(k, benchCollector(16, &v))

	cases := []struct {
		name string
		op   func()
	}{
		{"nil histogram", func() { nilLat.Observe(12.5) }},
		{"fill latency", func() { lat.Observe(12.5) }},
		{"zero recorder", func() { NodeRecorder{}.Record(1, EvFillPoisoned, 0) }},
		{"recorder", func() { rec.Record(1, EvARQRetransmit, 7) }},
		{"publish pass", func() { v++; k.Publish() }},
		{"run with collector", func() { v++; k.Run() }},
	}
	for _, c := range cases {
		c.op() // warm: the first pass may register series
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}

func BenchmarkPublish64(b *testing.B) {
	p := New()
	k := sim.NewKernel()
	var v uint64
	p.Collect(k, benchCollector(64, &v))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v++
		k.Publish()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultLatencyFirstUs, DefaultLatencyGrowth, DefaultLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
