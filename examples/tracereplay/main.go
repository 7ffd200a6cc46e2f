// Trace replay: close the loop between the beyond-rack fabric and the
// paper's injector. Phase 1 runs real incast congestion on a switched
// 3×1 pool and captures the per-fill remote-memory latencies.
// Phase 2 converts them into inter-release gaps and replays them on the
// point-to-point testbed through inject.TraceGate — emulating the measured
// datacenter conditions exactly the way the paper's framework injects
// fixed PERIODs, but with real temporal structure.
package main

import (
	"fmt"
	"log"

	"thymesim/internal/cluster"
	"thymesim/internal/inject"
	"thymesim/internal/memport"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
	"thymesim/internal/workloads/stream"
)

// captureCongestion returns one borrower's fill-completion gaps (the rate
// at which the congested fabric actually delivered its lines) and the mean
// fill latency, while the three borrowers of a 3×1 pool incast on its
// single lender.
func captureCongestion() (gaps []sim.Duration, meanLat sim.Duration) {
	p := cluster.NewPool(cluster.DefaultPoolConfig(3, 1, 1))
	var latSum sim.Duration
	var fills int
	var lastFill sim.Time
	started := false
	type flow struct {
		h *memport.Hierarchy
		r cluster.Region
	}
	var flows []flow
	for b := range p.Borrowers {
		r, err := p.Attach(b, 1<<30)
		if err != nil {
			log.Fatal(err)
		}
		h := p.Borrowers[b].NewRemoteHierarchy()
		if b == 0 {
			h.OnFill(func(lat sim.Duration) {
				latSum += lat
				fills++
				now := p.K.Now()
				if started {
					gaps = append(gaps, now.Sub(lastFill))
				}
				started = true
				lastFill = now
			})
		}
		flows = append(flows, flow{h, r})
	}
	const lines = 2500
	p.K.At(0, func() {
		for _, f := range flows {
			for i := 0; i < lines; i++ {
				f.h.Access(f.r.Addr(uint64(i)*ocapi.CacheLineSize), 8, false, nil)
			}
		}
	})
	p.Run()
	return gaps, latSum / sim.Duration(fills)
}

func runStreamWithGate(gate interface {
	Next(sim.Time) sim.Time
	Commit(sim.Time)
}) (bwGBs, meanUs, p99Us float64) {
	cfg := cluster.DefaultConfig(0)
	cfg.Gate = gate
	cfg.LLC.SizeBytes = 64 << 10
	cfg.LLC.Ways = 4
	tb := cluster.NewTestbed(cfg)
	h := tb.NewRemoteHierarchy()
	sCfg := stream.DefaultConfig(tb.RemoteAddr(0))
	sCfg.Elements = 1 << 15
	r := stream.New(tb.K, h, sCfg)
	var out []stream.Result
	tb.K.At(0, func() { r.Run(func(res []stream.Result) { out = res }) })
	tb.K.Run()
	bw, lat := stream.Summary(out)
	return bw / 1e9, lat, h.FillLatency().Quantile(0.99)
}

func main() {
	log.SetFlags(0)
	fmt.Println("Phase 1: capturing remote-fill latencies under 3-borrower incast...")
	gaps, meanLat := captureCongestion()
	fmt.Printf("  captured %d completion gaps, mean fill latency %v\n", len(gaps), meanLat)

	fmt.Println("\nPhase 2: replaying on the point-to-point testbed")
	bw, m, p99 := runStreamWithGate(inject.NewTraceGate(gaps, inject.DefaultFPGACycle))
	fmt.Printf("  trace-replay injector: STREAM %.3f GB/s, fill mean %.1f us, p99 %.1f us\n", bw, m, p99)

	// Compare against a fixed-PERIOD injector with the same mean gap.
	var gsum sim.Duration
	for _, g := range gaps {
		gsum += g
	}
	meanGap := gsum / sim.Duration(len(gaps))
	period := int64(meanGap / inject.DefaultFPGACycle)
	if period < 1 {
		period = 1
	}
	bwP, mP, p99P := runStreamWithGate(inject.NewPeriodGate(period, inject.DefaultFPGACycle))
	fmt.Printf("  fixed PERIOD=%-5d      : STREAM %.3f GB/s, fill mean %.1f us, p99 %.1f us\n", period, bwP, mP, p99P)
	fmt.Println("\nSame mean injected delay; the trace preserves the congestion's temporal")
	fmt.Println("structure (its tail), which the paper's fixed-PERIOD injector cannot (§V).")
}
