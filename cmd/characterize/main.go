// Command characterize regenerates every table and figure of the paper's
// evaluation (§IV): delay-injection validation (Figs. 2-3), resilience
// (Fig. 4), Table I, application impact (Fig. 5), contention (Figs. 6-7),
// and the §V/§VII extension studies. Results are rendered to stdout and,
// with -out, written as CSV files.
//
// Usage:
//
//	characterize [-out dir] [-paper] [-j N] [-trace file] [-trace-sample N]
//	             [-serve addr] [-metrics-out file]
//	             [-cpuprofile file] [-memprofile file]
//	             [-experiment all|validation|resilience|table1|fig5|mcbn|mcln|pool|pool-contention|dists|qos|migration|interconnect|prefetch|recovery|chaos|schedule|breaker-recovery|breakdown]
//
// Sweep points fan out across -j worker goroutines (default: one per
// CPU). Every point owns its testbed and derives its randomness from
// -seed, so output is byte-identical at every -j setting.
//
// With -serve, a live run monitor answers /metrics (Prometheus text
// exposition), /healthz, /status (JSON run status + SLOs), /stream
// (NDJSON snapshots), and /events (flight-recorder dump) while the
// experiments execute. The metrics plane only observes: simulated
// results are identical with it on or off.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"thymesim/internal/core"
	"thymesim/internal/metricsplane"
	"thymesim/internal/metricsplane/monitor"
	"thymesim/internal/prof"
	"thymesim/internal/sim"
	"thymesim/internal/sweep"
)

// checkFlags rejects flag combinations that cannot produce what they ask
// for, before any experiment runs: -trace writes the breakdown run's spans,
// so it needs that experiment; -trace-sample is a sampling stride; and
// -metrics-out snapshots the metrics plane, which only -serve turns on.
func checkFlags(experiment, trace string, traceSample int, serveAddr, metricsOut string) error {
	known := append([]string{"all"}, core.ExperimentNames()...)
	if !slices.Contains(known, experiment) {
		return fmt.Errorf("unknown experiment %q (choose one of %s)", experiment, strings.Join(known, "|"))
	}
	if trace != "" && experiment != "all" && experiment != "breakdown" {
		return fmt.Errorf("-trace needs the breakdown experiment (use -experiment all or breakdown), got -experiment %s", experiment)
	}
	if traceSample < 1 {
		return fmt.Errorf("-trace-sample must be >= 1, got %d", traceSample)
	}
	if metricsOut != "" && serveAddr == "" {
		return fmt.Errorf("-metrics-out needs -serve (the metrics plane is off without it)")
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")
	var (
		outDir     = flag.String("out", "", "directory for CSV output (omit to skip)")
		paper      = flag.Bool("paper", false, "use the paper's full experiment sizes (slow)")
		experiment = flag.String("experiment", "all", "which experiment to run")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		jobs       = flag.Int("j", 0, "concurrent sweep points (0 = one per CPU); results are identical at any -j")
		trace      = flag.String("trace", "", "Chrome trace-event JSON of the breakdown run's spans")
		traceSamp  = flag.Int("trace-sample", 1, "trace every Nth line fill in the breakdown sweep")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile (taken after the runs) to this file")
		mtxProfile = flag.String("mutexprofile", "", "write a mutex-contention profile of the runs to this file")
		blkProfile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file")
		serveAddr  = flag.String("serve", "", "serve the live run monitor (/metrics, /healthz, /status) on this address while experiments run")
		metricsOut = flag.String("metrics-out", "", "write the final metrics snapshot in Prometheus text format to this file (needs -serve)")
	)
	flag.Parse()
	if err := checkFlags(*experiment, *trace, *traceSamp, *serveAddr, *metricsOut); err != nil {
		log.Fatal(err)
	}

	opts := core.Default()
	if *paper {
		opts = core.Paper()
	}
	opts.Seed = *seed
	opts.Workers = *jobs
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	var plane *metricsplane.Plane
	if *serveAddr != "" {
		plane = metricsplane.New()
		plane.SetSLO(metricsplane.DefaultSLOConfig())
		plane.SetRun("characterize -experiment " + *experiment)
		opts.Metrics = plane
		srv, err := monitor.Serve(*serveAddr, plane)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics /healthz /status on http://%s\n", srv.Addr())
		planned := 0
		for _, e := range core.Experiments() {
			if want(e.Name) {
				planned++
			}
		}
		plane.ExperimentsPlanned(planned)
	}

	workers := sweep.Workers(opts.Workers)
	run := func(name string, fn func()) {
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		plane.SetPhase(name)
		points0, busy0 := sweep.Totals()
		start := time.Now()
		fn()
		wall := time.Since(start)
		points1, busy1 := sweep.Totals()
		// The experiment's own cost: wall time, sweep points, and how busy
		// the workers were (point wall ÷ workers × experiment wall).
		line := fmt.Sprintf("  done in %.2f s: %d sweep points", wall.Seconds(), points1-points0)
		if points1 > points0 {
			line += fmt.Sprintf(", -j %d %.0f%% busy", workers, 100*(busy1-busy0).Seconds()/(float64(workers)*wall.Seconds()))
		}
		fmt.Fprintln(os.Stderr, line)
		plane.ExperimentDone()
	}

	stopCPU, err := prof.Start(*cpuProfile)
	if err != nil {
		log.Fatal(err)
	}
	stopMutex, err := prof.StartMutex(*mtxProfile)
	if err != nil {
		log.Fatal(err)
	}
	stopBlock, err := prof.StartBlock(*blkProfile)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := runExperiments(opts, want, run, *traceSamp)
	if err != nil {
		log.Fatal(err)
	}

	stopCPU()
	if err := stopMutex(); err != nil {
		log.Fatal(err)
	}
	if err := stopBlock(); err != nil {
		log.Fatal(err)
	}
	if err := prof.WriteHeap(*memProfile); err != nil {
		log.Fatal(err)
	}

	if err := rep.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.Breakdown.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "Chrome trace written to %s\n", *trace)
	}
	if *outDir != "" {
		if err := rep.WriteCSVDir(*outDir); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "CSV written to %s\n", *outDir)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := metricsplane.WritePrometheus(f, plane.Snapshot()); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics snapshot written to %s\n", *metricsOut)
	}
}

// runExperiments runs every experiment want selects, in core.Experiments
// order, handing each to run (which announces and times it), and returns
// their report. traceSample is the breakdown sweep's tracing stride.
func runExperiments(opts core.Options, want func(string) bool, run func(name string, fn func()), traceSample int) (*core.Report, error) {
	rep := &core.Report{Options: opts}
	var err error
	if want("validation") {
		run("delay validation (Figs. 2-3)", func() { rep.Validation = opts.RunDelayValidation(core.DefaultPeriods()) })
	}
	if want("resilience") {
		run("resilience (Fig. 4)", func() { rep.Resilience = opts.RunResilience(core.ResiliencePeriods()) })
	}
	if want("table1") {
		run("Table I", func() { rep.Table1 = opts.RunTable1() })
	}
	if want("fig5") {
		run("application impact (Fig. 5)", func() { rep.Fig5 = opts.RunAppDegradation(core.Fig5Periods()) })
	}
	if want("mcbn") {
		run("borrower contention (Fig. 6)", func() { rep.MCBN = opts.RunMCBN([]int{1, 2, 4, 8}) })
	}
	if want("mcln") {
		run("lender contention (Fig. 7)", func() { rep.MCLN = opts.RunMCLN([]int{0, 1, 2, 4, 8}) })
	}
	if want("pool") {
		run("pooling ablation (§V)", func() { rep.Pool = opts.RunMCLNPool([]int{0, 1, 2, 4, 8}, 25e9) })
	}
	if want("pool-contention") {
		run("rack-scale pool contention (N borrowers × M lenders)", func() {
			rep.PoolCont = opts.RunPoolContention([]int{1, 2, 4, 8}, 4)
		})
	}
	if want("dists") {
		run("distribution injection (§VII)", func() { rep.Dists = opts.RunDistImpact(2 * sim.Microsecond) })
	}
	if want("qos") {
		run("QoS packet prioritization", func() { rep.QoS = opts.RunQoSPriority(100) })
	}
	if want("migration") {
		run("page migration", func() { rep.Migration = opts.RunMigration(100) })
	}
	if want("interconnect") {
		run("interconnect comparison (§V)", func() { rep.Xconnect = opts.RunInterconnectComparison() })
	}
	if want("prefetch") {
		run("prefetch ablation", func() { rep.Prefetch = opts.RunPrefetchAblation(250) })
	}
	if want("recovery") {
		run("link-fault recovery sweep", func() { rep.Recovery = opts.RunResilienceRecovery() })
	}
	if want("chaos") {
		run("chaos harness", func() {
			ccfg := core.DefaultChaosConfig()
			ccfg.Seed = opts.Seed
			rep.Chaos, err = opts.RunChaos(ccfg)
		})
		if err != nil {
			return nil, err
		}
	}
	if want("schedule") {
		run("scheduled chaos campaign (lender fault domains)", func() {
			scfg := core.DefaultChaosScheduleConfig()
			scfg.Seed = opts.Seed
			rep.Schedule, err = opts.RunChaosSchedule(scfg)
		})
		if err != nil {
			return nil, err
		}
	}
	if want("breaker-recovery") {
		run("breaker recovery sweep (outage length vs re-close time)", func() {
			rep.BreakerRec, err = opts.RunBreakerRecovery()
		})
		if err != nil {
			return nil, err
		}
	}
	if want("breakdown") {
		run("per-stage latency breakdown (Table I decomposition)", func() {
			rep.Breakdown = opts.RunLatencyBreakdown(core.DefaultPeriods(), traceSample)
		})
	}
	return rep, nil
}
