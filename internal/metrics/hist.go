// Package metrics provides the measurement primitives used across the
// simulator: log-bucketed latency histograms, labelled series, and
// text/CSV rendering for the experiment harness.
package metrics

import (
	"fmt"
	"math"
)

// Histogram is a log-bucketed histogram of non-negative float64 samples
// (typically latencies in microseconds or nanoseconds). Buckets grow
// geometrically so that relative quantile error is bounded (~5% with the
// default growth), matching the resolution of an HDR-style recorder while
// staying allocation-light.
type Histogram struct {
	growth  float64
	invLog  float64
	first   float64 // upper bound of bucket 0
	counts  []uint64
	zero    uint64 // samples equal to zero
	total   uint64
	sum     float64
	min     float64
	max     float64
	hasData bool
}

// NewHistogram returns a histogram with ~5% relative bucket resolution
// starting at firstBound (the upper edge of the first bucket). firstBound
// must be positive.
func NewHistogram(firstBound float64) *Histogram {
	return NewHistogramGrowth(firstBound, 1.05)
}

// NewHistogramGrowth returns a histogram with the given first bucket bound
// and geometric growth factor (> 1).
func NewHistogramGrowth(firstBound, growth float64) *Histogram {
	if firstBound <= 0 {
		panic("metrics: firstBound must be positive")
	}
	if growth <= 1 {
		panic("metrics: growth must exceed 1")
	}
	return &Histogram{
		growth: growth,
		invLog: 1 / math.Log(growth),
		first:  firstBound,
	}
}

// bucketFor maps a positive sample to its bucket index.
func (h *Histogram) bucketFor(v float64) int {
	if v <= h.first {
		return 0
	}
	return 1 + int(math.Log(v/h.first)*h.invLog)
}

// boundOf returns the upper bound of bucket i.
func (h *Histogram) boundOf(i int) float64 {
	return h.first * math.Pow(h.growth, float64(i))
}

// Observe records one sample. Negative samples panic: latencies cannot be
// negative and a negative value indicates a model bug.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("metrics: invalid sample %v", v))
	}
	if !h.hasData || v < h.min {
		h.min = v
	}
	if !h.hasData || v > h.max {
		h.max = v
	}
	h.hasData = true
	h.total++
	h.sum += v
	if v == 0 {
		h.zero++
		return
	}
	idx := h.bucketFor(v)
	for len(h.counts) <= idx {
		h.counts = append(h.counts, 0)
	}
	h.counts[idx]++
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if !h.hasData {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if !h.hasData {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1). The estimate
// is the upper bound of the bucket containing the target rank, clamped to
// the observed min/max so small sample sets stay sensible.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of range", q))
	}
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	if rank <= h.zero {
		return 0
	}
	seen := h.zero
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := h.boundOf(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p99=%.4g max=%.4g",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
