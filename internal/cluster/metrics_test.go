package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"thymesim/internal/metricsplane"
	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// TestWindowStreamCarriesTimeSeries drives a burst of remote reads through
// a delayed, traced testbed while the plane streams 1 µs windows, and
// checks that the stream is the run's time series: the injector backlog
// and the backend's outstanding window rise above zero in some window,
// link utilization is sampled, and the tracer's stage rollups arrive.
func TestWindowStreamCarriesTimeSeries(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Metrics = metricsplane.New()
	tb := NewTestbed(cfg)
	tb.EnableTracing(obs.Config{Sample: 1})
	var buf bytes.Buffer
	ws := cfg.Metrics.StreamWindows(tb.K, sim.Microsecond, &buf)
	h := tb.NewRemoteHierarchy()
	done := 0
	const reads = 64
	tb.K.At(0, func() {
		for i := 0; i < reads; i++ {
			h.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, false, func() {
				if done++; done == reads {
					tb.K.Stop()
				}
			})
		}
	})
	tb.K.Run()
	ws.Stop()
	if done != reads {
		t.Fatalf("%d of %d reads completed", done, reads)
	}

	peak := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s struct {
			Metric string  `json:"metric"`
			Value  float64 `json:"value"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if v, ok := peak[s.Metric]; !ok || s.Value > v {
			peak[s.Metric] = s.Value
		}
	}
	for _, name := range []string{
		"thymesim_nic_injector_backlog",
		"thymesim_fill_outstanding",
		"thymesim_link_utilization",
		"thymesim_stage_time_us_total",
	} {
		if v, ok := peak[name]; !ok || v <= 0 {
			t.Errorf("%s: peak %v in the window stream (present %t), want > 0", name, v, ok)
		}
	}
}
