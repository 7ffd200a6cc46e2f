package metrics

import (
	"bytes"
	"encoding/csv"
	"slices"
	"testing"
)

// TestTableWriteCSVRoundTrip proves WriteCSV output parses back into the
// same cells with a standards-compliant CSV reader, including cells that
// require quoting.
func TestTableWriteCSVRoundTrip(t *testing.T) {
	orig := &Table{Columns: []string{"counter", "value"}}
	orig.AddRow("drops", "17")
	orig.AddRow("weird,name", "3") // needs csvEscape quoting
	orig.AddRow(`quote"name`, "5")
	orig.AddRow("retransmits", "0")

	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("WriteCSV output does not re-parse: %v", err)
	}
	if !slices.Equal(rows[0], orig.Columns) {
		t.Fatalf("header = %v, want %v", rows[0], orig.Columns)
	}
	if len(rows)-1 != len(orig.Rows) {
		t.Fatalf("rows = %v", rows)
	}
	for i, row := range rows[1:] {
		if !slices.Equal(row, orig.Rows[i]) {
			t.Fatalf("row %d = %q after round trip, want %q", i, row, orig.Rows[i])
		}
	}
}

// TestHistogramQuantileSingleSample checks that every quantile of a
// one-sample distribution is that sample (the bucket upper bound must be
// clamped to the observed max, not rounded up).
func TestHistogramQuantileSingleSample(t *testing.T) {
	h := NewHistogram(0.001)
	h.Observe(3.7)
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 3.7 {
			t.Fatalf("Quantile(%v) = %v with single sample 3.7", q, got)
		}
	}
	if h.Min() != 3.7 || h.Max() != 3.7 || h.Mean() != 3.7 {
		t.Fatalf("min/max/mean = %v/%v/%v", h.Min(), h.Max(), h.Mean())
	}
}

// TestHistogramQuantileAllZero checks the zero-bucket path: a
// distribution of only zeros reports zero at every quantile.
func TestHistogramQuantileAllZero(t *testing.T) {
	h := NewHistogram(0.001)
	for i := 0; i < 100; i++ {
		h.Observe(0)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%v) = %v for all-zero samples", q, got)
		}
	}
	if h.Count() != 100 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("count/sum/max = %d/%v/%v", h.Count(), h.Sum(), h.Max())
	}
}
