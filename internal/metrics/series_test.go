package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSeriesLinearFit(t *testing.T) {
	s := &Series{Name: "lin"}
	for x := 1.0; x <= 10; x++ {
		s.Add(x, 3*x+2)
	}
	slope, intercept, r2 := s.LinearFit()
	if math.Abs(slope-3) > 1e-9 || math.Abs(intercept-2) > 1e-9 {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	if r2 < 0.999999 {
		t.Fatalf("r2 = %v, want ~1", r2)
	}
}

func TestSeriesLinearFitNoise(t *testing.T) {
	s := &Series{}
	// y = 2x with deterministic +/-1 noise: r2 should remain high.
	for i := 0; i < 100; i++ {
		n := 1.0
		if i%2 == 0 {
			n = -1.0
		}
		s.Add(float64(i), 2*float64(i)+n)
	}
	slope, _, r2 := s.LinearFit()
	if math.Abs(slope-2) > 0.01 {
		t.Fatalf("slope = %v", slope)
	}
	if r2 < 0.99 {
		t.Fatalf("r2 = %v", r2)
	}
}

func TestSeriesAccessors(t *testing.T) {
	s := &Series{}
	s.Add(1, 10)
	s.Add(2, 20)
	if v, ok := s.YAt(2); !ok || v != 20 {
		t.Fatalf("YAt(2) = %v, %v", v, ok)
	}
	if _, ok := s.YAt(3); ok {
		t.Fatal("YAt(3) should miss")
	}
	lo, hi, ok := s.MinMaxY()
	if !ok || lo != 10 || hi != 20 {
		t.Fatalf("MinMaxY = %v %v %v", lo, hi, ok)
	}
	if xs := s.Xs(); len(xs) != 2 || xs[1] != 2 {
		t.Fatalf("Xs = %v", xs)
	}
	if ys := s.Ys(); len(ys) != 2 || ys[0] != 10 {
		t.Fatalf("Ys = %v", ys)
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{Title: "Fig", XLabel: "period", YLabel: "latency,us"}
	a := f.AddSeries("stream")
	a.Add(1, 1.2)
	a.Add(10, 5.0)
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "series,period,\"latency,us\"\n") {
		t.Fatalf("header wrong: %q", out)
	}
	if !strings.Contains(out, "stream,1,1.2") || !strings.Contains(out, "stream,10,5") {
		t.Fatalf("rows wrong: %q", out)
	}
}

func TestFigureGet(t *testing.T) {
	f := &Figure{}
	f.AddSeries("a")
	b := f.AddSeries("b")
	if f.Get("b") != b {
		t.Fatal("Get(b) wrong")
	}
	if f.Get("zzz") != nil {
		t.Fatal("Get(zzz) should be nil")
	}
}

func TestFigureRenderASCII(t *testing.T) {
	f := &Figure{Title: "T", XLabel: "x", YLabel: "y", LogY: true}
	s := f.AddSeries("s")
	for x := 1.0; x <= 32; x *= 2 {
		s.Add(x, x*x)
	}
	var buf bytes.Buffer
	if err := f.RenderASCII(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "*") {
		t.Fatalf("render missing content:\n%s", out)
	}
	// Empty figure renders gracefully.
	var buf2 bytes.Buffer
	if err := (&Figure{Title: "E"}).RenderASCII(&buf2, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "no data") {
		t.Fatalf("empty render: %q", buf2.String())
	}
}

func TestTableRenderAndLookup(t *testing.T) {
	tb := &Table{Title: "Table I", Columns: []string{"workload", "PERIOD=1", "PERIOD=1000"}}
	tb.AddRow("Redis", "1.01x", "1.73x")
	tb.AddRow("Graph500 BFS", "6x", "2209x")
	if v, ok := tb.Lookup("Redis", "PERIOD=1000"); !ok || v != "1.73x" {
		t.Fatalf("lookup = %v %v", v, ok)
	}
	if _, ok := tb.Lookup("Redis", "nope"); ok {
		t.Fatal("lookup of missing column should fail")
	}
	if _, ok := tb.Lookup("nope", "PERIOD=1"); ok {
		t.Fatal("lookup of missing row should fail")
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Graph500 BFS") {
		t.Fatalf("render: %q", buf.String())
	}
	var csv bytes.Buffer
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "Redis,1.01x,1.73x") {
		t.Fatalf("csv: %q", csv.String())
	}
}

// TestCounterSetTableAndCSV checks the counter/value table shape that a
// set of named counters is reported in (chaos_counters.csv): rows keep
// insertion order, Lookup finds a counter's value, and the CSV starts
// with the counter,value header.
func TestCounterSetTableAndCSV(t *testing.T) {
	tab := &Table{Title: "chaos counters", Columns: []string{"counter", "value"}}
	tab.AddRow("drops", "11")
	tab.AddRow("corruptions", "2")
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "drops" || tab.Rows[1][0] != "corruptions" {
		t.Fatalf("rows = %v", tab.Rows)
	}
	if v, ok := tab.Lookup("drops", "value"); !ok || v != "11" {
		t.Fatalf("lookup drops = %q, %v", v, ok)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "counter,value\n") || !strings.Contains(out, "drops,11\n") {
		t.Fatalf("csv = %q", out)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("row mismatch did not panic")
		}
	}()
	tb.AddRow("only one")
}
