package metrics

import "testing"

// BenchmarkHistogramObserve measures the per-sample recording cost every
// simulated fill pays.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%10000) * 0.1)
	}
}

// BenchmarkHistogramQuantile measures quantile extraction.
func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram(0.001)
	for i := 0; i < 100000; i++ {
		h.Observe(float64(i % 10000))
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += h.Quantile(0.99)
	}
	_ = sink
}
