package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdictTable(t *testing.T) {
	ten := func(base float64, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5) // a 2*step spread around base+2*step
		}
		return xs
	}
	cases := []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
		wins           float64
	}{
		{"same runs", ten(100, 1), ten(100, 1), "lower", 0.1, unchanged, 0},
		{"small worse inside bound", ten(100, 1), ten(105, 1), "lower", 0.1, unchanged, 0},
		{"worse beyond bound", ten(100, 1), ten(120, 1), "lower", 0.1, worse, 0},
		{"higher is better, drop beyond bound", ten(100, 1), ten(80, 1), "higher", 0.1, worse, 0},
		{"clear gain", ten(100, 1), ten(90, 1), "lower", 0.1, improved, 1},
		{"higher is better, clear gain", ten(100, 1), ten(110, 1), "higher", 0.1, improved, 1},
		{"gain within parent spread", ten(100, 5), ten(99, 5), "lower", 0.5, unchanged, 1},
		{"noisy parent", ten(100, 20), ten(101, 20), "lower", 0.1, unresolved, 0},
		{"noisy but dominated", []float64{100, 140, 180}, []float64{30, 40, 50}, "lower", 0.1, improved, 1},
		{"unpaired gain needs every run better", []float64{100, 101, 102}, []float64{90, 91, 92, 93}, "lower", 0.1, improved, -1},
		{"unpaired overlap", []float64{100, 101, 102}, []float64{90, 95, 101, 101.5}, "lower", 0.2, unchanged, -1},
		{"no change runs", ten(100, 1), nil, "lower", 0.1, unresolved, -1},
	}
	for _, c := range cases {
		got, wins := verdict(c.parent, c.change, c.better, c.bound)
		if got != c.want || wins != c.wins {
			t.Errorf("%s: verdict %s wins %v, want %s wins %v", c.name, got, wins, c.want, c.wins)
		}
	}
}

// A win rate below nine in ten pairs does not claim a gain even when the
// medians differ.
func TestVerdictNeedsNineOfTenPairs(t *testing.T) {
	parent := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	change := []float64{90, 90, 90, 90, 90, 90, 90, 90, 100, 100}
	if v, wins := verdict(parent, change, "lower", 0.1); v != unchanged || wins != 0.8 {
		t.Fatalf("verdict %s wins %v, want unchanged at 0.8", v, wins)
	}
	change[8] = 95
	if v, _ := verdict(parent, change, "lower", 0.1); v != improved {
		t.Fatalf("verdict %s at 9 of 10, want improved", v)
	}
}

// The compare mode exits non-zero on a regression and zero otherwise.
func TestRunCompareExitCode(t *testing.T) {
	sp := loadTestSpec(t)
	write := func(unitS float64, correct bool) string {
		var b bytes.Buffer
		for i := 0; i < 10; i++ {
			r := record{result: result{Correct: correct, Attempted: 100, Metrics: map[string]metricValue{}},
				Workload: wStream, Seed: uint64(i + 1)}
			if !correct {
				r.Failed = 1
			}
			for _, m := range endToEnd {
				r.Metrics[m.name] = metricValue{Value: 1 + 0.001*float64(i%3), Unit: m.unit}
			}
			r.Metrics["unit_s_p50"] = metricValue{Value: unitS + 0.001*float64(i%3), Unit: "s"}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		p := filepath.Join(t.TempDir(), "runs.jsonl")
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parent := write(0.2, true)
	for _, c := range []struct {
		name   string
		change string
		code   int
	}{
		{"same", write(0.2, true), 0},
		{"faster", write(0.1, true), 0},
		{"slower", write(0.4, true), 1},
		{"incorrect", write(0.2, false), 1},
	} {
		var out, errb bytes.Buffer
		if code := runCompare(sp, parent, c.change, &out, &errb); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), wStream) {
			t.Errorf("%s: no row for %s:\n%s", c.name, wStream, out.String())
		}
	}
}
