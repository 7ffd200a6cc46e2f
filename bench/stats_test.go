package main

import (
	"math"
	"testing"
)

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// is how outside checkers compute a run set's spread.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1},
		{[]float64{3, 1, 2}, 1, 2, 3, 1},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75, 1},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, 1},
		{[]float64{0.5, 0.25, 1, 2, 4, 8, 16}, 0.5, 2, 8, 3.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5, 1},
		{[]float64{7}, 7, 7, 7, 0},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.N != len(c.xs) || s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", c.xs, s, c.q1, c.m, c.q3)
		}
		if got := s.spread(); math.Abs(got-c.wantSpread) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.wantSpread)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// p90 is resolved only with at least ten samples beyond it.
func TestP90SampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n        int
		want     float64
		resolved bool
	}{
		{1, 1, false},
		{10, 9, false},
		{99, 90, false},
		{100, 90, true},
		{104, 94, true},
		{110, 99, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i + 1) // descending: p90 must sort
		}
		got, ok := p90(xs)
		if got != c.want || ok != c.resolved {
			t.Errorf("p90 of 1..%d = %v (resolved %v), want %v (resolved %v)", c.n, got, ok, c.want, c.resolved)
		}
	}
	if _, ok := p90(nil); ok {
		t.Error("p90 of no samples resolved")
	}
}

func TestRatioOfZeroIsZero(t *testing.T) {
	if ratio(5, 0) != 0 || per(5, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Fatal("ratio")
	}
}
