// Command tfsim runs a single workload on the simulated ThymesisFlow
// testbed under a chosen delay-injection PERIOD and memory placement, and
// prints its measurements — the equivalent of one experimental run on the
// prototype.
//
// Usage:
//
//	tfsim -workload stream|graph500|redis [-period N] [-placement remote|local]
//	      [-elements N] [-scale N] [-requests N] [-seed N]
//	      [-trace FILE] [-trace-sample N] [-telemetry FILE]
//	      [-serve ADDR] [-metrics-ndjson FILE]
//
// With -serve, a live run monitor answers /metrics (Prometheus text),
// /healthz, /status, /stream, and /events while the workload runs.
// -metrics-ndjson streams windowed metric deltas (one JSON object per
// changed series per 10 µs simulated-time window) and applies to the
// stream/remote telemetry mode, which owns the simulated clock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"thymesim/internal/core"
	"thymesim/internal/metricsplane"
	"thymesim/internal/metricsplane/monitor"
	"thymesim/internal/obs"
	"thymesim/internal/sim"
	"thymesim/internal/telemetry"
	"thymesim/internal/workloads/stream"
)

// buildOptions maps the seed and count flags onto the default options. A
// zero count keeps the default; a negative one is an error rather than a
// silent fallback to the default.
func buildOptions(seed uint64, elements, scale, requests int) (core.Options, error) {
	opts := core.Default()
	opts.Seed = seed
	for _, c := range []struct {
		name string
		v    int
		dst  *int
	}{
		{"elements", elements, &opts.StreamElements},
		{"scale", scale, &opts.GraphScale},
		{"requests", requests, &opts.KVRequests},
	} {
		if c.v < 0 {
			return opts, fmt.Errorf("-%s must be >= 0 (0 = default), got %d", c.name, c.v)
		}
		if c.v > 0 {
			*c.dst = c.v
		}
	}
	return opts, opts.Validate()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tfsim: ")
	var (
		workload  = flag.String("workload", "stream", "stream | graph500 | redis")
		period    = flag.Int64("period", 1, "delay injector PERIOD in FPGA cycles (1 = vanilla)")
		placement = flag.String("placement", "remote", "remote | local")
		elements  = flag.Int("elements", 0, "STREAM array elements (0 = default)")
		scale     = flag.Int("scale", 0, "Graph500 scale (0 = default)")
		requests  = flag.Int("requests", 0, "Memtier requests per client (0 = default)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		telem     = flag.String("telemetry", "", "CSV file for time-series telemetry (stream/remote only)")
		trace     = flag.String("trace", "", "Chrome trace-event JSON file for span tracing (remote only)")
		traceSamp = flag.Int("trace-sample", 1, "trace every Nth line fill (bounds tracer memory)")
		serveAddr = flag.String("serve", "", "serve the live run monitor (/metrics, /healthz, /status) on this address while the workload runs")
		metricsND = flag.String("metrics-ndjson", "", "stream windowed metric deltas as NDJSON to this file (stream/remote telemetry mode only)")
	)
	flag.Parse()

	opts, err := buildOptions(*seed, *elements, *scale, *requests)
	if err != nil {
		log.Fatal(err)
	}
	if *period < 1 {
		log.Fatal("period must be >= 1")
	}
	remote := *placement == "remote"
	if !remote && *placement != "local" {
		log.Fatalf("unknown placement %q", *placement)
	}
	if !remote && *period != 1 {
		log.Fatal("delay injection applies to remote placement only")
	}
	if *trace != "" && !remote {
		log.Fatal("span tracing requires remote placement")
	}
	tcfg := obs.Config{Sample: *traceSamp}

	if *serveAddr != "" || *metricsND != "" {
		plane := metricsplane.New()
		plane.SetSLO(metricsplane.DefaultSLOConfig())
		plane.SetRun(fmt.Sprintf("tfsim -workload %s -placement %s -period %d", *workload, *placement, *period))
		opts.Metrics = plane
	}
	if *serveAddr != "" {
		srv, err := monitor.Serve(*serveAddr, opts.Metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics /healthz /status on http://%s\n", srv.Addr())
	}
	if *metricsND != "" && (*workload != "stream" || !remote || *telem == "") {
		log.Fatal("-metrics-ndjson needs the stream/remote telemetry mode (-workload stream -placement remote -telemetry FILE)")
	}

	switch *workload {
	case "stream":
		if *telem != "" {
			if !remote {
				log.Fatal("telemetry requires remote placement")
			}
			runStreamTelemetry(opts, *period, *telem, *trace, *metricsND, tcfg)
			return
		}
		var m core.StreamMeasurement
		var tr *obs.Tracer
		switch {
		case !remote:
			m = opts.StreamLocal()
		case *trace != "":
			m, tr = opts.StreamRemoteTraced(*period, tcfg)
		default:
			m = opts.StreamRemote(*period)
		}
		fmt.Printf("STREAM %s PERIOD=%d\n", *placement, *period)
		for _, r := range m.PerKernel {
			fmt.Printf("  %-6s %8.3f GB/s  fill latency %8.3f us\n",
				r.Kernel, r.BandwidthBps/1e9, r.AvgFillLatencyUs)
		}
		fmt.Printf("  total  %8.3f GB/s  mean latency %8.3f us  BDP %.2f kB\n",
			m.BandwidthBps/1e9, m.FillLatUs, m.BandwidthBps*m.FillLatUs/1e9)
		finishTrace(tr, *trace)
	case "graph500":
		var m core.GraphMeasurement
		var tr *obs.Tracer
		switch {
		case !remote:
			m = opts.GraphLocal()
		case *trace != "":
			m, tr = opts.GraphRemoteTraced(*period, tcfg)
		default:
			m = opts.GraphRemote(*period)
		}
		fmt.Printf("Graph500 scale=%d %s PERIOD=%d\n", opts.GraphScale, *placement, *period)
		fmt.Printf("  BFS  %12v  %10.0f TEPS\n", m.BFSTime, m.BFSTeps)
		fmt.Printf("  SSSP %12v  %10.0f TEPS\n", m.SSSPTime, m.SSSPTeps)
		finishTrace(tr, *trace)
	case "redis":
		var m core.KVMeasurement
		var tr *obs.Tracer
		switch {
		case !remote:
			m = opts.KVLocal()
		case *trace != "":
			m, tr = opts.KVRemoteTraced(*period, tcfg)
		default:
			m = opts.KVRemote(*period)
		}
		fmt.Printf("Redis+Memtier %s PERIOD=%d\n", *placement, *period)
		fmt.Printf("  throughput %10.0f req/s\n", m.Throughput)
		fmt.Printf("  latency    mean %.1f us  p99 %.1f us\n", m.MeanLatUs, m.P99LatUs)
		finishTrace(tr, *trace)
	default:
		log.Fatalf("unknown workload %q", *workload)
	}
}

// finishTrace prints the traced run's per-stage breakdown, exports the
// Chrome trace, and re-parses the file to prove it is valid JSON. No-op
// when tracing was off.
func finishTrace(tr *obs.Tracer, path string) {
	if tr == nil || path == "" {
		return
	}
	if err := tr.BreakdownTable("per-stage latency breakdown").Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		log.Fatalf("trace %s: invalid JSON: %v", path, err)
	}
	fmt.Printf("trace: %d spans (%d retained) -> %s (%d events, valid JSON)\n",
		tr.Finished(), tr.Retained(), path, len(parsed.TraceEvents))
}

// runStreamTelemetry runs STREAM on the remote testbed while sampling the
// datapath's observables every 10us of simulated time, then writes the
// series as CSV. With tracePath set, span tracing runs alongside and its
// per-stage running means join the sampled probes. With ndPath set (and
// the metrics plane on), windowed metric deltas stream there as NDJSON on
// the same 10us simulated-time cadence.
func runStreamTelemetry(opts core.Options, period int64, path, tracePath, ndPath string, tcfg obs.Config) {
	tb := opts.Testbed(period)
	var tr *obs.Tracer
	if tracePath != "" {
		tr = tb.EnableTracing(tcfg)
	}
	var ws *metricsplane.WindowStream
	if ndPath != "" {
		nf, err := os.Create(ndPath)
		if err != nil {
			log.Fatal(err)
		}
		defer nf.Close()
		ws = opts.Metrics.StreamWindows(tb.K, 10*sim.Microsecond, nf)
		defer func() {
			ws.Stop()
			fmt.Printf("metrics: windowed NDJSON stream -> %s\n", ndPath)
		}()
	}
	h := tb.NewRemoteHierarchy()
	cfg := stream.DefaultConfig(tb.RemoteAddr(0))
	cfg.Elements = opts.StreamElements

	sampler := telemetry.NewSampler(tb.K, 10*sim.Microsecond)
	tr.RegisterProbes(sampler)
	sampler.Register("injector_backlog", func() float64 {
		return float64(tb.BorrowerNIC.InjectorBacklog())
	})
	sampler.Register("mshr_in_use", func() float64 {
		return float64(h.OutstandingFills())
	})
	sampler.Register("link_utilization", func() float64 {
		return tb.Link.AtoB.Utilization()
	})
	sampler.Register("lender_dram_utilization", func() float64 {
		return tb.LenderMem.Utilization()
	})
	sampler.Start()

	r := stream.New(tb.K, h, cfg)
	var results []stream.Result
	tb.K.At(0, func() {
		r.Run(func(res []stream.Result) {
			results = res
			sampler.Stop()
			tb.K.Stop()
		})
	})
	tb.K.Run()

	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := sampler.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
	bw, lat := stream.Summary(results)
	fmt.Printf("STREAM remote PERIOD=%d: %.3f GB/s, fill latency %.2f us\n", period, bw/1e9, lat)
	fmt.Printf("telemetry: %d samples x %d probes -> %s\n", sampler.Samples(), len(sampler.Names()), path)
	finishTrace(tr, tracePath)
}
