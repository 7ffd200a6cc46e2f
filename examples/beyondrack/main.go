// Beyond-rack example: the scenario the paper's delay injector emulates,
// built for real. A switched fabric replaces the point-to-point cable;
// multiple borrowers reach one lender through a shared switch port, and
// congestion manifests as exactly the elevated, variable remote-memory
// latency that §IV characterizes synthetically.
package main

import (
	"fmt"
	"log"

	"thymesim/internal/cluster"
	"thymesim/internal/memport"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// measure runs `borrowers` concurrent line-read streams against the single
// lender of a 4×1 pool and reports per-borrower bandwidth and mean fill
// latency.
func measure(borrowers int) (bwBps float64, meanLatUs float64) {
	p := cluster.NewPool(cluster.DefaultPoolConfig(4, 1, 1))
	type flow struct {
		h *memport.Hierarchy
		r cluster.Region
	}
	var flows []flow
	for b := 0; b < borrowers; b++ {
		r, err := p.Attach(b, 1<<30)
		if err != nil {
			log.Fatal(err)
		}
		flows = append(flows, flow{p.Borrowers[b].NewRemoteHierarchy(), r})
	}
	const lines = 3000
	p.K.At(0, func() {
		for _, f := range flows {
			for i := 0; i < lines; i++ {
				f.h.Access(f.r.Addr(uint64(i)*ocapi.CacheLineSize), 8, false, nil)
			}
		}
	})
	end := p.Run()
	perBorrower := float64(lines*ocapi.CacheLineSize) / sim.Time(end).Seconds()
	// Average the per-hierarchy fill latencies.
	var lat float64
	for _, f := range flows {
		lat += f.h.FillLatency().Mean()
	}
	return perBorrower, lat / float64(len(flows))
}

func main() {
	log.SetFlags(0)
	fmt.Println("Incast at one lender across a switched fabric (4x1 pool, 100 Gb/s ports):")
	fmt.Printf("%-10s %18s %18s\n", "borrowers", "per-borrower GB/s", "fill latency (us)")
	var base, last float64
	for _, n := range []int{1, 2, 3, 4} {
		bw, lat := measure(n)
		if n == 1 {
			base = lat
		}
		last = lat
		fmt.Printf("%-10d %18.3f %18.2f\n", n, bw/1e9, lat)
	}
	fmt.Printf("\ncongestion raised remote-memory latency %.1fx without any injector —\n", last/base)
	fmt.Println("the regime the paper's PERIOD sweeps emulate on the point-to-point prototype.")
}
