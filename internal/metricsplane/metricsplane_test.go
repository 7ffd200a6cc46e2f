package metricsplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"thymesim/internal/sim"
)

func TestLabelsRenderInSchemaOrder(t *testing.T) {
	l := NewLabels().WithStage("nic_pipe").WithNode(3).WithTenant("be1").WithLink(1).WithLender(2)
	got := l.pairs()
	want := []LabelPair{
		{"node", "3"}, {"lender", "2"}, {"link", "1"}, {"tenant", "be1"}, {"stage", "nic_pipe"},
	}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n := len(NewLabels().pairs()); n != 0 {
		t.Fatalf("empty label set renders %d pairs", n)
	}
}

func TestRegistryGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	l := NewLabels().WithNode(1)
	a := r.Counter("thymesim_x_total", "x", l)
	b := r.Counter("thymesim_x_total", "x", l)
	if a != b {
		t.Fatal("same name+labels produced distinct counters")
	}
	if c := r.Counter("thymesim_x_total", "x", NewLabels().WithNode(2)); c == a {
		t.Fatal("distinct labels shared a counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thymesim_y_total", "y", NewLabels())
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter family did not panic")
		}
	}()
	r.Gauge("thymesim_y_total", "y", NewLabels())
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	// Register out of order; snapshot must sort by name, then label tuple.
	r.Counter("thymesim_b_total", "b", NewLabels().WithNode(2))
	r.Counter("thymesim_b_total", "b", NewLabels().WithNode(1))
	r.Gauge("thymesim_a", "a", NewLabels())
	s := r.Snapshot()
	if len(s) != 3 {
		t.Fatalf("%d samples", len(s))
	}
	if s[0].Name != "thymesim_a" || s[1].Labels.Node != 1 || s[2].Labels.Node != 2 {
		t.Fatalf("unsorted snapshot: %+v", s)
	}
}

func TestHistogramQuantilesAndBounds(t *testing.T) {
	h := NewHistogram(1, 1.5, 40)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%100) + 0.5)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 < 20 || p50 > 80 {
		t.Fatalf("p50 = %g, want ~50 within bucket resolution", p50)
	}
	if p99 < p50 || p99 > 150 {
		t.Fatalf("p99 = %g out of range (p50 %g)", p99, p50)
	}
	// Overflow goes to the +Inf bucket, keeping count consistent.
	h.Observe(1e12)
	if h.Count() != 1001 {
		t.Fatalf("overflow lost: count %d", h.Count())
	}
	if !math.IsInf(h.UpperBound(DefaultLatencyBuckets-1), 1) {
		t.Fatal("last bucket bound is not +Inf")
	}
}

func TestHistogramSubMinimumObservation(t *testing.T) {
	h := NewHistogram(1, 1.5, 10)
	h.Observe(0.01) // below the first bound lands in bucket 0
	if h.Count() != 1 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(0.5); q < 0 || q > 1 {
		t.Fatalf("median %g outside first bucket", q)
	}
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("thymesim_fills_total", "Remote fills.", NewLabels().WithNode(0)).Add(42)
	r.Gauge("thymesim_alloc_fragmentation", "Frag.", NewLabels().WithLender(1)).Set(0.25)
	h := r.Histogram("thymesim_fill_latency_us", "Latency.", NewLabels().WithNode(0))
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	r.Counter("thymesim_escape_total", "quote \" backslash \\ newline.",
		NewLabels().WithTenant("a\"b\\c\nd")).Inc()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	parsed, err := ParseExposition(body)
	if err != nil {
		t.Fatalf("self-emitted exposition rejected: %v\n%s", err, body)
	}
	if v, ok := parsed.Value("thymesim_fills_total", map[string]string{"node": "0"}); !ok || v != 42 {
		t.Fatalf("fills_total = %v ok=%v", v, ok)
	}
	if v, ok := parsed.Value("thymesim_alloc_fragmentation", map[string]string{"lender": "1"}); !ok || v != 0.25 {
		t.Fatalf("fragmentation = %v ok=%v", v, ok)
	}
	if v, ok := parsed.Value("thymesim_fill_latency_us_count", map[string]string{"node": "0"}); !ok || v != 10 {
		t.Fatalf("histogram _count = %v ok=%v", v, ok)
	}
	if parsed.Types["thymesim_fill_latency_us"] != "histogram" {
		t.Fatalf("TYPE = %q", parsed.Types["thymesim_fill_latency_us"])
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"series before TYPE":     "thymesim_x_total 1\n",
		"negative counter":       "# TYPE thymesim_x_total counter\nthymesim_x_total -1\n",
		"non-cumulative buckets": "# TYPE thymesim_h histogram\nthymesim_h_bucket{le=\"1\"} 5\nthymesim_h_bucket{le=\"2\"} 3\nthymesim_h_bucket{le=\"+Inf\"} 5\nthymesim_h_sum 1\nthymesim_h_count 5\n",
		"missing +Inf bucket":    "# TYPE thymesim_h histogram\nthymesim_h_bucket{le=\"1\"} 5\nthymesim_h_sum 1\nthymesim_h_count 5\n",
		"count != +Inf":          "# TYPE thymesim_h histogram\nthymesim_h_bucket{le=\"+Inf\"} 5\nthymesim_h_sum 1\nthymesim_h_count 6\n",
		"trailing timestamp":     "# TYPE thymesim_x_total counter\nthymesim_x_total 1 1700000000\n",
		"garbage value":          "# TYPE thymesim_x_total counter\nthymesim_x_total one\n",
		"unterminated label":     "# TYPE thymesim_x_total counter\nthymesim_x_total{node=\"1 2\n",
	}
	for name, body := range cases {
		if _, err := ParseExposition(body); err == nil {
			t.Errorf("%s: accepted:\n%s", name, body)
		}
	}
}

func TestNDJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("thymesim_fills_total", "f", NewLabels().WithNode(2).WithTenant("be1")).Add(7)
	r.Histogram("thymesim_lat_us", "l", NewLabels()).Observe(3)
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", ln, err)
		}
		if obj["metric"] == "thymesim_fills_total" {
			labels := obj["labels"].(map[string]any)
			if labels["node"] != "2" || labels["tenant"] != "be1" {
				t.Fatalf("labels %v", labels)
			}
			if obj["value"].(float64) != 7 {
				t.Fatalf("value %v", obj["value"])
			}
		}
	}
}

func TestFlightRecorderWrap(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Record(float64(i), i, EvFillPoisoned, 0)
	}
	if fr.Total() != 10 {
		t.Fatalf("total %d", fr.Total())
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, ev := range evs {
		if want := 6 + i; ev.Node != want {
			t.Fatalf("event %d node %d, want %d (oldest-first after wrap)", i, ev.Node, want)
		}
	}
	var buf bytes.Buffer
	fr.WriteNDJSON(&buf)
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("recorder NDJSON line %q: %v", ln, err)
		}
	}
	// Nil recorder is inert.
	var nilRec *FlightRecorder
	nilRec.Record(0, 0, EvFillLate, 0)
	if nilRec.Total() != 0 || nilRec.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestNilPlaneAndInstrumentsAreInert(t *testing.T) {
	var p *Plane
	p.SetRun("x")
	p.SetPhase("y")
	p.ExperimentsPlanned(3)
	p.ExperimentDone()
	p.DumpOnAuditFailure("c", []string{"v"})
	if p.Snapshot() != nil || p.Registry() != nil || p.Recorder() != nil {
		t.Fatal("nil plane leaked state")
	}
	if p.FillLatency(0, "") != nil || p.StageObserver(0, []string{"port"}) != nil {
		t.Fatal("nil plane built instruments")
	}
	if p.RecorderFor(0) != (NodeRecorder{}) {
		t.Fatal("nil plane handed out a live recorder")
	}
	k := sim.NewKernel()
	ran := false
	p.Collect(k, func(*Publisher) { ran = true })
	k.Run()
	if ran {
		t.Fatal("nil plane ran a collector")
	}

	// Nil and zero push handles absorb every call.
	var h *Histogram
	h.Observe(1)
	NodeRecorder{}.Record(0, EvFillPoisoned, 0)
	if h.Count() != 0 {
		t.Fatal("nil histogram counted")
	}
}

// fillCollector publishes node 0's fill counters from plain fields, the
// way cluster.Pool's collector publishes a backend's getters.
func fillCollector(reads, poisoned *uint64) func(*Publisher) {
	return func(pb *Publisher) {
		l := ForNode(0)
		pb.Counter("thymesim_fill_reads_total", "Completed remote read fills.", l, *reads)
		pb.Counter("thymesim_fill_poisoned_total", "Poisoned fills.", l, *poisoned)
	}
}

func TestPlaneSLOTracking(t *testing.T) {
	p := New()
	p.SetSLO(SLOConfig{FillP99Us: 10, PoisonedBudget: 0.1})
	k := sim.NewKernel()
	var reads, poisoned uint64
	p.Collect(k, fillCollector(&reads, &poisoned))
	lat := p.FillLatency(0, "")
	for i := 0; i < 100; i++ {
		lat.Observe(1)
	}
	reads, poisoned = 100, 1 // one poisoned fill: 1% of 100
	k.Run()
	slo := p.SLO()
	if len(slo) != 1 {
		t.Fatalf("%d SLO rows", len(slo))
	}
	st := slo[0]
	if st.Node != 0 || st.Fills != 100 {
		t.Fatalf("SLO row %+v", st)
	}
	if !st.LatencyOK {
		t.Fatalf("1us fills violate a 10us target: %+v", st)
	}
	if st.PoisonedFraction != 0.01 || !st.BudgetOK {
		t.Fatalf("poisoned accounting %+v", st)
	}
	if math.Abs(st.BudgetBurn-0.1) > 1e-9 {
		t.Fatalf("budget burn %g, want 0.1", st.BudgetBurn)
	}

	p.SetSLO(SLOConfig{FillP99Us: 0.5, PoisonedBudget: 0.001})
	st = p.SLO()[0]
	if st.LatencyOK || st.BudgetOK {
		t.Fatalf("tightened SLO still passes: %+v", st)
	}
}

func TestDumpOnAuditFailureWritesRecorderAndSLO(t *testing.T) {
	p := New()
	var buf bytes.Buffer
	p.SetDumpWriter(&buf)
	p.FillLatency(1, "").Observe(3)
	p.RecorderFor(1).Record(42*sim.Time(sim.Microsecond), EvFillPoisoned, 0)
	p.DumpOnAuditFailure("unit", []string{"thing broke"})
	out := buf.String()
	for _, want := range []string{"campaign=\"unit\"", "violation: thing broke", EvFillPoisoned, `"t_us":42`, "slo node=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestCollectPublishesDeltas pins the pull path: the baseline pass counts
// nothing, later passes add deltas at the kernel's publish points only,
// collectors sharing a label set sum, a series that appears mid-order is
// picked up, and gauges read the value at publish time.
func TestCollectPublishesDeltas(t *testing.T) {
	p := New()
	var a, b, extra uint64 = 5, 7, 0
	var gauge float64
	withExtra := false
	collector := func(v *uint64) func(*Publisher) {
		return func(pb *Publisher) {
			pb.Counter("thymesim_x_total", "x", ForNode(0), *v)
			if withExtra {
				pb.Counter("thymesim_x_total", "x", ForNode(1), extra)
			}
			pb.Gauge("thymesim_g", "g", ForNode(0), gauge)
			pb.Counter("thymesim_y_total", "y", ForNode(0), *v)
		}
	}
	k1, k2 := sim.NewKernel(), sim.NewKernel()
	p.Collect(k1, collector(&a))
	p.Collect(k2, collector(&b))
	value := func(name string, node int) float64 {
		t.Helper()
		v, ok := parseSnapshot(t, p).Value(name, map[string]string{"node": fmt.Sprint(node)})
		if !ok {
			t.Fatalf("%s{node=%d} not exported", name, node)
		}
		return v
	}
	if v := value("thymesim_x_total", 0); v != 0 {
		t.Fatalf("baseline pass counted %v", v)
	}

	a, b, gauge = 8, 10, 2.5
	if v := value("thymesim_x_total", 0); v != 0 {
		t.Fatalf("counted %v before any publish point", v)
	}
	k1.After(sim.Microsecond, func() {})
	k1.Run()
	if v := value("thymesim_x_total", 0); v != 3 {
		t.Fatalf("after k1 run: %v, want 3", v)
	}
	if k1.Now() != sim.Time(sim.Microsecond) || k1.Pending() != 0 {
		t.Fatalf("publishing moved the clock or scheduled: now %v pending %d", k1.Now(), k1.Pending())
	}
	k2.StepTo(sim.Time(sim.Millisecond))
	if v := value("thymesim_x_total", 0); v != 6 {
		t.Fatalf("two collectors sharing labels: %v, want 6", v)
	}
	if v := value("thymesim_g", 0); v != 2.5 {
		t.Fatalf("gauge %v, want 2.5", v)
	}

	withExtra, extra, a = true, 4, 9
	k1.RunUntil(sim.Time(sim.Millisecond))
	if v := value("thymesim_x_total", 1); v != 4 {
		t.Fatalf("series appearing mid-order: %v, want 4", v)
	}
	if x, y := value("thymesim_x_total", 0), value("thymesim_y_total", 0); x != 7 || y != 7 {
		t.Fatalf("after reorder x=%v y=%v, want 7 and 7", x, y)
	}
	k1.Publish() // nothing changed: nothing added
	if v := value("thymesim_y_total", 0); v != 7 {
		t.Fatalf("idle publish changed a counter: %v", v)
	}
}

func TestStageObserverRollsUp(t *testing.T) {
	p := New()
	obs := p.StageObserver(2, []string{"port", "nic_pipe"})
	obs(0, 1.5)
	obs(0, 2.5)
	obs(1, 4)
	obs(99, 1) // out-of-range stage must be dropped, not panic
	parsed := parseSnapshot(t, p)
	if v, ok := parsed.Value("thymesim_stage_spans_total", map[string]string{"node": "2", "stage": "port"}); !ok || v != 2 {
		t.Fatalf("port spans = %v ok=%v", v, ok)
	}
	if v, ok := parsed.Value("thymesim_stage_time_us_total", map[string]string{"node": "2", "stage": "nic_pipe"}); !ok || v != 4 {
		t.Fatalf("nic_pipe time = %v ok=%v", v, ok)
	}
}

func parseSnapshot(t *testing.T, p *Plane) *ParsedExposition {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseExposition(buf.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	return parsed
}
