package metricsplane

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"thymesim/internal/sim"
)

// windowLine is one decoded WindowStream record.
type windowLine struct {
	Metric    string            `json:"metric"`
	Type      string            `json:"type"`
	Labels    map[string]string `json:"labels"`
	Value     float64           `json:"value"`
	SimTimeUs float64           `json:"sim_time_us"`
	Delta     float64           `json:"delta"`
}

func decodeWindows(t *testing.T, buf *bytes.Buffer) []windowLine {
	t.Helper()
	var out []windowLine
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var w windowLine
		if err := json.Unmarshal([]byte(line), &w); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, w)
	}
	return out
}

// TestWindowStreamPullsLiveValuesPerWindow drives a collector whose
// counter and gauge change between windows and checks that each window
// pulls the live values: one record per changed series, stamped with the
// window's simulated time, counters carrying the per-window delta and
// gauges their current value, unchanged series omitted, and every series
// keeping its node label.
func TestWindowStreamPullsLiveValuesPerWindow(t *testing.T) {
	p := New()
	k := sim.NewKernel()
	var count uint64
	var depth float64
	p.Collect(k, func(pb *Publisher) {
		pb.Counter("thymesim_x_total", "x", ForNode(3), count)
		pb.Gauge("thymesim_depth", "depth", ForNode(3), depth)
	})
	var buf bytes.Buffer
	ws := p.StreamWindows(k, 10*sim.Microsecond, &buf)
	// Changes land between ticks: +4 and depth 2 in the first window,
	// nothing in the second, +1 and depth 0 in the third.
	k.At(sim.Time(5*sim.Microsecond), func() { count, depth = 4, 2 })
	k.At(sim.Time(25*sim.Microsecond), func() { count, depth = 5, 0 })
	k.At(sim.Time(35*sim.Microsecond), func() { k.Stop() })
	k.Run()
	ws.Stop()

	type rec struct {
		metric    string
		at, value float64
		delta     float64
	}
	var got []rec
	for _, w := range decodeWindows(t, &buf) {
		if w.Metric != "thymesim_x_total" && w.Metric != "thymesim_depth" {
			continue // the plane's own sweep series
		}
		if w.Labels["node"] != "3" {
			t.Errorf("%s at %v lost its node label: %v", w.Metric, w.SimTimeUs, w.Labels)
		}
		got = append(got, rec{w.Metric, w.SimTimeUs, w.Value, w.Delta})
	}
	want := []rec{
		{"thymesim_depth", 10, 2, 2},
		{"thymesim_x_total", 10, 4, 4},
		{"thymesim_depth", 30, 0, 0},
		{"thymesim_x_total", 30, 5, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("records = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWindowStreamStopEndsTicking checks that Stop ends emission: the
// stream's ticker exits at its next tick, so a kernel with nothing else
// to do drains well before the horizon, and no record is written after
// the stop.
func TestWindowStreamStopEndsTicking(t *testing.T) {
	p := New()
	k := sim.NewKernel()
	var n uint64
	p.Collect(k, func(pb *Publisher) { pb.Counter("thymesim_n_total", "n", ForNode(0), n) })
	var buf bytes.Buffer
	ws := p.StreamWindows(k, sim.Microsecond, &buf)
	for i := 1; i <= 5; i++ {
		k.At(sim.Time(i)*sim.Time(sim.Microsecond)-1, func() { n++ })
	}
	k.At(sim.Time(3*sim.Microsecond), func() { ws.Stop() })
	k.RunUntil(sim.Time(50 * sim.Microsecond))
	if k.Pending() != 0 {
		t.Fatalf("%d events pending after Stop: the ticker kept running", k.Pending())
	}
	for _, w := range decodeWindows(t, &buf) {
		if w.SimTimeUs > 3 {
			t.Errorf("record at %v us after Stop at 3 us", w.SimTimeUs)
		}
	}
}

// TestWindowStreamDisabled checks the off switches: a nil plane or a
// non-positive window yields a nil stream, whose Stop is a no-op, and
// arms nothing on the kernel.
func TestWindowStreamDisabled(t *testing.T) {
	k := sim.NewKernel()
	var buf bytes.Buffer
	var nilPlane *Plane
	for name, ws := range map[string]*WindowStream{
		"nil plane":   nilPlane.StreamWindows(k, sim.Microsecond, &buf),
		"zero window": New().StreamWindows(k, 0, &buf),
		"negative":    New().StreamWindows(k, -sim.Microsecond, &buf),
	} {
		if ws != nil {
			t.Errorf("%s: stream %v, want nil", name, ws)
		}
		ws.Stop()
	}
	if k.Pending() != 0 || buf.Len() != 0 {
		t.Fatalf("disabled streams armed %d events and wrote %d bytes", k.Pending(), buf.Len())
	}
}
