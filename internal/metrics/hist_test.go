package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(0.001)
	var samples []float64
	for i := 1; i <= 10000; i++ {
		v := float64(i) * 0.1
		h.Observe(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := ExactQuantile(samples, q)
		if rel := math.Abs(got-want) / want; rel > 0.06 {
			t.Errorf("q%v: got %v want %v (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramZeroSamples(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(0)
	h.Observe(0)
	h.Observe(10)
	if h.Quantile(0.5) != 0 {
		t.Fatalf("median = %v, want 0", h.Quantile(0.5))
	}
	if h.Quantile(1.0) < 9 {
		t.Fatalf("p100 = %v, want ~10", h.Quantile(1.0))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	h := NewHistogram(1)
	defer func() {
		if recover() == nil {
			t.Error("negative sample did not panic")
		}
	}()
	h.Observe(-1)
}

// Property: quantile estimates are monotone in q and bounded by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(1)
		for _, r := range raw {
			h.Observe(float64(r % 1000000))
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			if v < h.Min()-1e-9 || v > h.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	if q := ExactQuantile(s, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := ExactQuantile(s, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := ExactQuantile(s, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := ExactQuantile(nil, 0.5); q != 0 {
		t.Fatalf("empty = %v", q)
	}
	// Input must be untouched.
	if s[0] != 5 {
		t.Fatal("ExactQuantile mutated input")
	}
}

// ExactQuantile computes the q-quantile of a sample slice by sorting a copy
// (nearest-rank): the reference the histogram quantile tests compare
// against.
func ExactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	rank := int(math.Ceil(q*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(cp) {
		rank = len(cp) - 1
	}
	return cp[rank]
}
