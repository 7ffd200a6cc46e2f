package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples: the median and quartiles the
// benchmark reports for every timing, plus the sample count.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarize returns the quartiles of xs using the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the spreads the
// benchmark prints match what an outside checker computes from the same
// values. A single sample is its own quartiles; no samples give zeros.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Q1: s[0], Median: s[0], Q3: s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{N: n, Q1: q(1), Median: q(2), Q3: q(3)}
}

// median is summarize(xs).Median.
func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the interquartile range as a share of the median (0 when the
// median is 0).
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// p90 returns the nearest-rank 90th percentile of xs and whether it is
// resolved: a percentile is reported only when at least ten samples lie
// beyond it, which for p90 means at least 100 samples.
func p90(xs []float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(0.9 * float64(n)))
	return s[rank-1], n-rank >= 10
}

// ratio is a/b, or 0 when b is 0: a per-fill count on a workload that
// performs no fills reads as zero rather than as NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
