package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thymesim/internal/metricsplane"
	"thymesim/internal/sim"
)

func get(t *testing.T, srv *httptest.Server, path string) (string, *http.Response) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

func TestMonitorEndpoints(t *testing.T) {
	p := metricsplane.New()
	p.SetRun("unit run")
	p.SetPhase("scraping")
	p.ExperimentsPlanned(4)
	p.ExperimentDone()
	// Two fills on node 0, one of them a poisoned write: the latency
	// histogram and recorder are pushed, the counters pulled when the
	// kernel returns.
	k := sim.NewKernel()
	var reads, writes, poisoned uint64
	p.Collect(k, func(pb *metricsplane.Publisher) {
		l := metricsplane.ForNode(0)
		pb.Counter("thymesim_fill_reads_total", "Reads.", l, reads)
		pb.Counter("thymesim_fill_writes_total", "Writes.", l, writes)
		pb.Counter("thymesim_fill_poisoned_total", "Poisoned.", l, poisoned)
	})
	lat := p.FillLatency(0, "")
	lat.Observe(12.5)
	lat.Observe(14)
	p.RecorderFor(0).Record(2*sim.Time(sim.Microsecond), metricsplane.EvFillPoisoned, 0)
	reads, writes, poisoned = 1, 1, 1
	k.Run()

	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	body, resp := get(t, srv, "/healthz")
	if resp.StatusCode != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz %d %q", resp.StatusCode, body)
	}

	body, resp = get(t, srv, "/metrics")
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content type %q", got)
	}
	parsed, err := metricsplane.ParseExposition(body)
	if err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, body)
	}
	if v, ok := parsed.Value("thymesim_fill_poisoned_total", map[string]string{"node": "0"}); !ok || v != 1 {
		t.Fatalf("poisoned = %v ok=%v\n%s", v, ok, body)
	}

	body, _ = get(t, srv, "/status")
	var st metricsplane.RunStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st.Run != "unit run" || st.Phase != "scraping" || st.ExperimentsDone != 1 || st.ExperimentsPlanned != 4 {
		t.Fatalf("/status %+v", st)
	}
	if len(st.SLO) != 1 || st.SLO[0].Fills != 2 {
		t.Fatalf("/status SLO %+v", st.SLO)
	}

	body, _ = get(t, srv, "/stream?n=2")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		t.Fatalf("/stream returned %d lines", len(lines))
	}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("/stream line %q: %v", ln, err)
		}
	}

	body, _ = get(t, srv, "/events")
	if !strings.Contains(body, metricsplane.EvFillPoisoned) {
		t.Fatalf("/events missing recorded poison event:\n%s", body)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	p := metricsplane.New()
	srv, err := Serve("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
