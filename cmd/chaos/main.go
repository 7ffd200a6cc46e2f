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
	"flag"
	"fmt"
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
	def := core.DefaultChaosFaults()
	var (
		seed       = flag.Uint64("seed", 1, "fault-schedule seed")
		ber        = flag.Float64("ber", def.BER, "per-beat bit error rate (0 disables)")
		drop       = flag.Float64("drop", def.DropProb, "per-beat drop probability (0 disables)")
		flapUp     = flag.Float64("flap-up", def.FlapMeanUp.Micros(), "mean link up-phase (us)")
		flapDown   = flag.Float64("flap-down", def.FlapMeanDown.Micros(), "mean link down-phase (us, 0 disables flapping)")
		workloads  = flag.String("workloads", strings.Join(core.ChaosWorkloads, ","), "comma-separated workloads")
		jobs       = flag.Int("j", 0, "concurrent chaos trials (0 = one per CPU); results are identical at any -j")
		failover   = flag.Bool("failover", false, "also run the dead-link degraded-failover scenario")
		schedule   = flag.Bool("schedule", false, "also run the scheduled lender-fault campaign (crash/wipe/burst/brownout) with the deadline+breaker stack")
		poolChaos  = flag.Bool("pool", false, "also run the pool chaos campaign (N×M region churn + lender crash/restore)")
		serveAddr  = flag.String("serve", "", "serve the live run monitor (/metrics, /healthz, /status) on this address while campaigns run")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the chaos trials to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile (taken after the trials) to this file")
		mtxProfile = flag.String("mutexprofile", "", "write a mutex-contention profile of the trials to this file")
		blkProfile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file")
	)
	flag.Parse()

	opts := core.Default()
	opts.Seed = *seed
	opts.Workers = *jobs
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}
	if *serveAddr != "" {
		plane := metricsplane.New()
		plane.SetSLO(metricsplane.DefaultSLOConfig())
		plane.SetRun(fmt.Sprintf("chaos -seed %d", *seed))
		opts.Metrics = plane
		srv, err := monitor.Serve(*serveAddr, plane)
		if err != nil {
			log.Fatal(err)
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
	rep, err := opts.RunChaos(cfg)
	if err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
		}
	}
	var poolResult *core.PoolChaos
	if *poolChaos {
		pcfg := core.DefaultPoolChaosConfig()
		pcfg.Seed = *seed
		poolResult = opts.RunPoolChaos(pcfg)
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

	if err := rep.Table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := rep.Counters.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if failoverResult != nil {
		fmt.Println()
		r := failoverResult
		fmt.Printf("degraded failover: completed=%t dead_declared=%t degraded=%t pages=%d local_accesses=%d poisoned=%d elapsed=%.4g us\n",
			r.Completed, r.DeadDeclared, r.Degraded, r.DegradedPages, r.LocalAccesses, r.Poisoned, r.ElapsedUs)
		if !r.Completed || !r.DeadDeclared || !r.Degraded {
			log.Fatal("degraded failover did not complete cleanly")
		}
	}

	if scheduleResult != nil {
		fmt.Println()
		if err := scheduleResult.Events.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := scheduleResult.Table.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		r := scheduleResult.Result
		fmt.Printf("scheduled campaign: trips=%d reopens=%d closes=%d trip=%.4g us recovery=%.4g us final=%s\n",
			r.Trips, r.Reopens, r.Closes, r.TripUs, r.RecoveryUs, r.FinalBreaker)
		if !scheduleResult.OK() {
			for _, v := range r.Violations {
				log.Printf("schedule: VIOLATION: %s", v)
			}
			log.Fatal("scheduled campaign failed its audit")
		}
	}

	if poolResult != nil {
		fmt.Println()
		r := poolResult
		fmt.Printf("pool chaos: seed=%d rounds=%d attaches=%d (rejected=%d) detaches=%d grows=%d crashes=%d restores=%d\n",
			r.Seed, r.Rounds, r.Attaches, r.AttachRejected, r.Detaches, r.Grows, r.Crashes, r.Restores)
		fmt.Printf("pool chaos: issued=%d completed=%d poisoned=%d expired=%d translation_faults=%d\n",
			r.Issued, r.Completed, r.Poisoned, r.Expired, r.TranslationFaults)
		if !r.OK() {
			for _, v := range r.Violations {
				log.Printf("pool: VIOLATION: %s", v)
			}
			log.Fatal("pool chaos campaign failed its audit")
		}
	}

	if !rep.OK() {
		for _, r := range rep.Results {
			for _, v := range r.Violations {
				log.Printf("%s: VIOLATION: %s", r.Workload, v)
			}
		}
		log.Fatal("invariant violations detected")
	}
	fmt.Println("\nall workloads completed; all invariants held")
}
