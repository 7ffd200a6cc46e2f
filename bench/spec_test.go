package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// BENCHMARK.json lists exactly the metrics and workloads the harness
// reports, in the same order and with the same units and directions.
func TestSpecMatchesHarness(t *testing.T) {
	sp := loadTestSpec(t)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, harness %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
}

// Every per-layer metric names the end-to-end metric it should move and
// the workloads it should move it on.
func TestPerLayerMetricsNameWhatTheyMove(t *testing.T) {
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	for _, d := range perLayer {
		if !e2e[d.moves] {
			t.Errorf("%s moves %q, not an end-to-end metric", d.name, d.moves)
		}
		if len(d.on) == 0 {
			t.Errorf("%s names no workload", d.name)
		}
		for _, w := range d.on {
			if !slices.Contains(workloadNames, w) {
				t.Errorf("%s moves on unknown workload %q", d.name, w)
			}
		}
	}
}

// Bounds stay within the limit, and set-up time has the largest.
func TestEndToEndBoundsWithinLimit(t *testing.T) {
	sp := loadTestSpec(t)
	for _, m := range sp.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s bound %v", m.Name, *m.Bound)
		}
	}
	var setup float64
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range sp.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s's %v; set-up time gets the largest", m.Name, *m.Bound, setup)
		}
	}
}

// The limits reject specs that break them.
func TestSpecLimits(t *testing.T) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(m map[string]any)) string {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	list := func(m map[string]any, k string) []any { return m[k].([]any) }
	metric := func(name string) map[string]any {
		return map[string]any{"name": name, "unit": "count", "better": "lower"}
	}
	for name, f := range map[string]func(m map[string]any){
		"one workload": func(m map[string]any) { m["workloads"] = list(m, "workloads")[:1] },
		"nine workloads": func(m map[string]any) {
			w := list(m, "workloads")
			for i := 0; len(w) < 9; i++ {
				w = append(w, map[string]any{"name": "extra" + string(rune('a'+i)), "why": "x"})
			}
			m["workloads"] = w
		},
		"17 end-to-end": func(m map[string]any) {
			e := list(m, "end_to_end")
			for i := 0; len(e) < 17; i++ {
				x := metric("e" + strings.Repeat("x", i+1))
				x["bound"] = 0.1
				e = append(e, x)
			}
			m["end_to_end"] = e
		},
		"129 per-layer": func(m map[string]any) {
			p := list(m, "per_layer")
			for i := 0; len(p) < 129; i++ {
				p = append(p, metric("p"+strings.Repeat("y", i%60+1)+string(rune('a'+i/60))))
			}
			m["per_layer"] = p
		},
		"bad name": func(m map[string]any) {
			list(m, "per_layer")[0].(map[string]any)["name"] = "sim events"
		},
		"duplicate name": func(m map[string]any) {
			list(m, "per_layer")[1].(map[string]any)["name"] = list(m, "per_layer")[0].(map[string]any)["name"]
		},
		"bound too large": func(m map[string]any) {
			list(m, "end_to_end")[0].(map[string]any)["bound"] = 0.3
		},
		"missing bound": func(m map[string]any) {
			delete(list(m, "end_to_end")[0].(map[string]any), "bound")
		},
		"per-layer bound": func(m map[string]any) {
			list(m, "per_layer")[0].(map[string]any)["bound"] = 0.1
		},
		"unknown key":      func(m map[string]any) { m["extra"] = 1 },
		"no setup_s":       func(m map[string]any) { list(m, "end_to_end")[0].(map[string]any)["name"] = "build_s" },
		"bad unit":         func(m map[string]any) { list(m, "per_layer")[0].(map[string]any)["unit"] = "events per fill" },
		"two-line why":     func(m map[string]any) { list(m, "workloads")[0].(map[string]any)["why"] = "a\nb" },
		"absolute path":    func(m map[string]any) { m["paths"] = []any{"/bench"} },
		"escaping path":    func(m map[string]any) { m["paths"] = []any{"bench/../.."} },
		"run_seconds 61":   func(m map[string]any) { m["run_seconds"] = 61 },
		"bad better":       func(m map[string]any) { list(m, "per_layer")[0].(map[string]any)["better"] = "up" },
		"absolute command": func(m map[string]any) { m["command"] = []any{"/bin/sh"} },
	} {
		if _, err := loadSpec(mutate(f)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := loadSpec(mutate(func(map[string]any) {})); err != nil {
		t.Errorf("unchanged spec rejected: %v", err)
	}
}
