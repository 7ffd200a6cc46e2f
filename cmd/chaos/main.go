// Command chaos runs the link-fault chaos harness: every selected workload
// executes to completion under a seeded schedule of corruption, drop, and
// flap faults with ARQ retransmission and supervisor re-attach active, then
// a set of end-to-end invariants is audited (no leaked transactions,
// balanced byte accounting, crisp completion). Exit status is nonzero if
// any invariant fails, so the harness can gate CI.
//
// Usage:
//
//	chaos [-seed n] [-j n] [-ber p] [-drop p] [-flap-up us]
//	      [-flap-down us] [-workloads stream,kvstore,graph500] [-failover]
//	      [-pool] [-serve addr] [-cpuprofile file] [-memprofile file]
//	      [-mutexprofile file] [-blockprofile file]
//
// Trials fan out across -j worker goroutines (default: one per CPU); each
// trial owns its testbed and fault schedule, so results are identical at
// any -j.
//
// With -serve, a live run monitor answers /metrics, /healthz, /status,
// /stream, and /events while the campaigns execute, and a failed
// invariant audit dumps the flight recorder (the last datapath events
// before the violation) to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"thymesim/internal/core"
	"thymesim/internal/metricsplane"
	"thymesim/internal/metricsplane/monitor"
	"thymesim/internal/prof"
	"thymesim/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run executes the campaigns args select and writes their report to w. It
// returns an error for a bad configuration or a failed audit; the
// violations themselves go to the log.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	def := core.DefaultChaosFaults()
	var (
		seed       = fs.Uint64("seed", 1, "fault-schedule seed")
		ber        = fs.Float64("ber", def.BER, "per-beat bit error rate (0 disables)")
		drop       = fs.Float64("drop", def.DropProb, "per-beat drop probability (0 disables)")
		flapUp     = fs.Float64("flap-up", def.FlapMeanUp.Micros(), "mean link up-phase (us)")
		flapDown   = fs.Float64("flap-down", def.FlapMeanDown.Micros(), "mean link down-phase (us, 0 disables flapping)")
		workloads  = fs.String("workloads", strings.Join(core.ChaosWorkloads, ","), "comma-separated workloads")
		jobs       = fs.Int("j", 0, "concurrent chaos trials (0 = one per CPU); results are identical at any -j")
		failover   = fs.Bool("failover", false, "also run the dead-link degraded-failover scenario")
		schedule   = fs.Bool("schedule", false, "also run the scheduled lender-fault campaign (crash/wipe/burst/brownout) with the deadline+breaker stack")
		poolChaos  = fs.Bool("pool", false, "also run the pool chaos campaign (N×M region churn + lender crash/restore)")
		serveAddr  = fs.String("serve", "", "serve the live run monitor (/metrics, /healthz, /status) on this address while campaigns run")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the chaos trials to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile (taken after the trials) to this file")
		mtxProfile = fs.String("mutexprofile", "", "write a mutex-contention profile of the trials to this file")
		blkProfile = fs.String("blockprofile", "", "write a goroutine-blocking profile to this file")
	)
	fs.Parse(args)

	opts := core.Default()
	opts.Seed = *seed
	opts.Workers = *jobs
	if err := opts.Validate(); err != nil {
		return err
	}
	if *serveAddr != "" {
		plane := metricsplane.New()
		plane.SetSLO(metricsplane.DefaultSLOConfig())
		plane.SetRun(fmt.Sprintf("chaos -seed %d", *seed))
		opts.Metrics = plane
		srv, err := monitor.Serve(*serveAddr, plane)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics /healthz /status on http://%s\n", srv.Addr())
	}
	cfg := core.DefaultChaosConfig()
	cfg.Seed = *seed
	cfg.Faults.BER = *ber
	cfg.Faults.DropProb = *drop
	cfg.Faults.FlapMeanUp = sim.Duration(*flapUp * float64(sim.Microsecond))
	cfg.Faults.FlapMeanDown = sim.Duration(*flapDown * float64(sim.Microsecond))
	cfg.Workloads = strings.Split(*workloads, ",")

	stopCPU, err := prof.Start(*cpuProfile)
	if err != nil {
		return err
	}
	stopMutex, err := prof.StartMutex(*mtxProfile)
	if err != nil {
		return err
	}
	stopBlock, err := prof.StartBlock(*blkProfile)
	if err != nil {
		return err
	}
	rep, err := opts.RunChaos(cfg)
	if err != nil {
		return err
	}
	var failoverResult *core.DegradedFailover
	if *failover {
		failoverResult = opts.RunDegradedFailover()
	}
	var scheduleResult *core.ChaosScheduleReport
	if *schedule {
		scfg := core.DefaultChaosScheduleConfig()
		scfg.Seed = *seed
		scheduleResult, err = opts.RunChaosSchedule(scfg)
		if err != nil {
			return err
		}
	}
	var poolResult *core.PoolChaos
	if *poolChaos {
		pcfg := core.DefaultPoolChaosConfig()
		pcfg.Seed = *seed
		poolResult, err = opts.RunPoolChaos(pcfg)
		if err != nil {
			return err
		}
	}
	stopCPU()
	if err := stopMutex(); err != nil {
		return err
	}
	if err := stopBlock(); err != nil {
		return err
	}
	if err := prof.WriteHeap(*memProfile); err != nil {
		return err
	}

	if err := rep.Table.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := rep.Counters.Render(w); err != nil {
		return err
	}

	if failoverResult != nil {
		fmt.Fprintln(w)
		r := failoverResult
		fmt.Fprintf(w, "degraded failover: completed=%t dead_declared=%t degraded=%t pages=%d local_accesses=%d poisoned=%d elapsed=%.4g us\n",
			r.Completed, r.DeadDeclared, r.Degraded, r.DegradedPages, r.LocalAccesses, r.Poisoned, r.ElapsedUs)
		for _, v := range r.Violations {
			log.Printf("failover: VIOLATION: %s", v)
		}
		if !r.Completed || !r.DeadDeclared || !r.Degraded || len(r.Violations) > 0 {
			return errors.New("degraded failover did not complete cleanly")
		}
	}

	if scheduleResult != nil {
		fmt.Fprintln(w)
		if err := scheduleResult.Events.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := scheduleResult.Table.Render(w); err != nil {
			return err
		}
		r := scheduleResult.Result
		fmt.Fprintf(w, "scheduled campaign: trips=%d reopens=%d closes=%d trip=%.4g us recovery=%.4g us final=%s\n",
			r.Trips, r.Reopens, r.Closes, r.TripUs, r.RecoveryUs, r.FinalBreaker)
		if !scheduleResult.OK() {
			for _, v := range r.Violations {
				log.Printf("schedule: VIOLATION: %s", v)
			}
			return errors.New("scheduled campaign failed its audit")
		}
	}

	if poolResult != nil {
		fmt.Fprintln(w)
		r := poolResult
		fmt.Fprintf(w, "pool chaos: seed=%d rounds=%d attaches=%d (rejected=%d) detaches=%d grows=%d crashes=%d restores=%d\n",
			r.Seed, r.Rounds, r.Attaches, r.AttachRejected, r.Detaches, r.Grows, r.Crashes, r.Restores)
		fmt.Fprintf(w, "pool chaos: issued=%d completed=%d poisoned=%d expired=%d translation_faults=%d\n",
			r.Issued, r.Completed, r.Poisoned, r.Expired, r.TranslationFaults)
		if !r.OK() {
			for _, v := range r.Violations {
				log.Printf("pool: VIOLATION: %s", v)
			}
			return errors.New("pool chaos campaign failed its audit")
		}
	}

	if !rep.OK() {
		for _, r := range rep.Results {
			for _, v := range r.Violations {
				log.Printf("%s: VIOLATION: %s", r.Workload, v)
			}
		}
		return errors.New("invariant violations detected")
	}
	fmt.Fprintln(w, "\nall workloads completed; all invariants held")
	return nil
}
