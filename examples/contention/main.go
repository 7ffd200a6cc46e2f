// Contention example: the paper's third insight. Contention at the
// borrower (MCBN) divides bandwidth equally among instances, while
// contention at the lender (MCLN) is nearly invisible to the borrower —
// the network, not the lender's memory bus, is the bottleneck. A busy
// lender and an idle lender are therefore "equally viable candidates" for
// reservation, which this example demonstrates from the measured MCLN
// bandwidth drop.
package main

import (
	"fmt"
	"log"

	"thymesim/internal/core"
)

func main() {
	log.SetFlags(0)
	opts := core.Default()

	fmt.Println("MCBN: N STREAM instances on the borrower (Fig. 6)")
	mcbn := opts.RunMCBN([]int{1, 2, 4, 8})
	for i, n := range mcbn.Counts {
		fmt.Printf("  %d instance(s): %7.3f GB/s per instance\n", n, mcbn.BorrowerBps[i]/1e9)
	}

	fmt.Println("\nMCLN: 1 borrower STREAM vs N lender-local STREAMs (Fig. 7)")
	mcln := opts.RunMCLN([]int{0, 1, 2, 4})
	for i, n := range mcln.Counts {
		fmt.Printf("  %d lender app(s): %7.3f GB/s at the borrower\n", n, mcln.BorrowerBps[i]/1e9)
	}
	drop := 1 - mcln.BorrowerBps[len(mcln.BorrowerBps)-1]/mcln.BorrowerBps[0]
	fmt.Printf("  borrower bandwidth drop with a busy lender: %.1f%%\n", 100*drop)

	// Placement consequence, read off the measurement: when a busy lender
	// costs the borrower little, preferring an idle one buys nothing.
	verdict := "busy and idle lenders are equally viable reservation targets"
	if drop > 0.1 {
		verdict = "prefer idle lenders for new reservations"
	}
	fmt.Printf("  => %s\n\n", verdict)

	// The §V caveat: against a CPU-less memory pool the bottleneck moves
	// into the pool and lender-side contention is suddenly very visible.
	fmt.Println("Pooling ablation (§V): same MCLN against a 25 GB/s pool device")
	pool := opts.RunMCLNPool([]int{0, 1, 2, 4}, 25e9)
	for i, n := range pool.Counts {
		fmt.Printf("  %d pool-local app(s): %7.3f GB/s at the borrower\n", n, pool.BorrowerBps[i]/1e9)
	}
}
