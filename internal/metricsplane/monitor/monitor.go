// Package monitor is the metrics plane's live HTTP run monitor. It is a
// separate package so that only the binaries link the net/http stack:
// the simulation packages depend on metricsplane alone, keeping the
// datapath's allocation profile (and the bench gate) free of the HTTP
// runtime's background work.
package monitor

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"thymesim/internal/metricsplane"
)

// Server is the live run monitor: an HTTP listener serving the plane
// while a campaign executes. Endpoints:
//
//	/metrics  Prometheus text exposition v0.0.4
//	/healthz  200 "ok"
//	/status   JSON RunStatus (run, phase, experiment progress, SLOs)
//	/stream   NDJSON snapshots (one per second; ?n=K stops after K)
//	/events   NDJSON flight-recorder contents
type Server struct {
	plane *metricsplane.Plane
	ln    net.Listener
	srv   *http.Server
}

// Handler returns the monitor's routes for p, for embedding or tests.
func Handler(p *metricsplane.Plane) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metricsplane.WritePrometheus(w, p.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(p.Status())
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			n, _ = strconv.Atoi(v)
		}
		flusher, _ := w.(http.Flusher)
		for i := 0; n <= 0 || i < n; i++ {
			if i > 0 {
				select {
				case <-r.Context().Done():
					return
				case <-time.After(time.Second):
				}
			}
			if err := metricsplane.WriteNDJSON(w, p.Snapshot()); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		p.Recorder().WriteNDJSON(w)
	})
	return mux
}

// Serve starts the monitor on addr (e.g. ":9464" or "127.0.0.1:0") and
// returns once the listener is bound; requests are served on a
// background goroutine. Scrapes observe the run live — the simulation
// keeps executing on its own goroutines and all reads are atomic.
func Serve(addr string, p *metricsplane.Plane) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{plane: p, ln: ln, srv: &http.Server{Handler: Handler(p)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }
