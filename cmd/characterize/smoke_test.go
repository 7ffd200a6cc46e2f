package main

// Metrics smoke test: build the real binary, run a pool-contention sweep
// with the live monitor enabled, and scrape the endpoints mid-run the way
// an operator (or Prometheus) would. This is the test `make metrics-smoke`
// and the CI metrics-smoke job run.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thymesim/internal/metricsplane"
)

func TestMetricsServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs the full binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "characterize")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	snap := filepath.Join(dir, "metrics.prom")
	cmd := exec.Command(bin,
		"-experiment", "pool-contention", "-j", "4",
		"-serve", "127.0.0.1:0", "-metrics-out", snap)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The monitor announces its bound address on stderr before the
	// experiments start.
	addr := ""
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			addr = strings.TrimSpace(line[i+len("http://"):])
			break
		}
	}
	if addr == "" {
		t.Fatalf("monitor address never announced (scan err %v)", sc.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	if body := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %q", body)
	}

	// Scrape mid-run until fills appear, validating every exposition body
	// with the parser; counters must only grow between scrapes.
	lastFills := -1.0
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		body := get("/metrics")
		parsed, err := metricsplane.ParseExposition(body)
		if err != nil {
			t.Fatalf("mid-run /metrics invalid: %v", err)
		}
		fills, _ := parsed.Value("thymesim_fill_reads_total", map[string]string{"node": "0"})
		if fills < lastFills {
			t.Fatalf("fill counter went backwards: %v -> %v", lastFills, fills)
		}
		lastFills = fills
		if fills > 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if lastFills <= 0 {
		t.Fatal("no fills observed via /metrics while the sweep ran")
	}

	var st metricsplane.RunStatus
	if err := json.Unmarshal([]byte(get("/status")), &st); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if !strings.Contains(st.Run, "pool-contention") || st.ExperimentsPlanned != 1 {
		t.Fatalf("/status = %+v", st)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("characterize exited: %v", err)
	}

	// The -metrics-out snapshot must itself be valid exposition and agree
	// with what the live endpoint reported.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	parsed, err := metricsplane.ParseExposition(string(data))
	if err != nil {
		t.Fatalf("final snapshot invalid: %v", err)
	}
	final, ok := parsed.Value("thymesim_fill_reads_total", map[string]string{"node": "0"})
	if !ok || final < lastFills {
		t.Fatalf("snapshot fills %v (ok=%v), mid-run saw %v", final, ok, lastFills)
	}
	if typ := parsed.Types["thymesim_fill_latency_us"]; typ != "histogram" {
		t.Fatalf("fill latency TYPE = %q, want histogram", typ)
	}
}
