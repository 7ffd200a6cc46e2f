package main

import (
	"testing"
)

// Two units of each simulated workload pass their audits, and running
// them again, traced or not, repeats every count and digest exactly.
func TestSimWorkloadsSmokeAndRepeatCounts(t *testing.T) {
	for _, name := range simWorkloads {
		w, ok := simWorkloadFor(name)
		if !ok {
			t.Fatalf("%s: no unit function", name)
		}
		for unit := 0; unit < 2; unit++ {
			first := w(7, unit, nil, -1)
			rec := newRecorder()
			rec.on = true
			root := rec.begin("unit", -1, unit)
			again := w(7, unit, rec, root)
			rec.end(root)
			for _, out := range []unitOut{first, again} {
				if out.err != nil {
					t.Fatalf("%s unit %d: %v", name, unit, out.err)
				}
			}
			if first.counts.Fills == 0 || first.counts.Events == 0 || first.counts.Digest == 0 {
				t.Fatalf("%s unit %d: empty counts %+v", name, unit, first.counts)
			}
			if first.counts != again.counts {
				t.Errorf("%s unit %d: counts differ between runs:\n%+v\n%+v", name, unit, first.counts, again.counts)
			}
			if len(rec.durations("sim.run")) != 1 || len(rec.durations("cluster.build")) != 1 {
				t.Errorf("%s unit %d: traced unit recorded %d spans", name, unit, len(rec.spans))
			}
		}
	}
}

// Different seeds give different inputs.
func TestSeedChangesInputs(t *testing.T) {
	a := churnUnit(1, 0, 0, nil, -1)
	b := churnUnit(2, 0, 0, nil, -1)
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	if a.counts.Digest == b.counts.Digest {
		t.Error("rack-churn seeds 1 and 2 gave the same digest")
	}
}

func TestLayerCountsRatios(t *testing.T) {
	m := layerCounts(counts{Units: 2, Fills: 100, Events: 2950, Accesses: 200, CacheHits: 30, CacheMisses: 70,
		ARQTracked: 90, ARQRetransmits: 9, ARQCompleted: 90, Rejected: 1, Attaches: 3, LinkUtilSum: 1})
	want := map[string]float64{
		"sim.events_per_fill":               29.5,
		"memport.fills_per_access":          0.5,
		"cache.hit_ratio":                   0.3,
		"tfnic.arq_attempts_per_completion": 1.1,
		"pool.attach_rejected_frac":         0.25,
		"netlink.utilization":               0.5,
		"sim.timer_cancel_frac":             0,
	}
	for k, v := range want {
		if got := m[k]; got != v {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
}
