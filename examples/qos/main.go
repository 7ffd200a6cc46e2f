// QoS example: the paper's second insight operationalized. Applications
// differ by orders of magnitude in sensitivity to remote-memory latency
// (Fig. 5), so resource allocation must be QoS-aware: under elevated
// network delay, latency-sensitive workloads (Graph500) should be kept on
// (or migrated to) local memory, while latency-tolerant services (Redis)
// can stay on disaggregated memory almost for free.
//
// The example measures both workloads in both placements under an elevated
// delay, then shows what a QoS-aware placement decision saves.
package main

import (
	"fmt"
	"log"

	"thymesim/internal/cluster"
	"thymesim/internal/core"
)

func main() {
	log.SetFlags(0)
	opts := core.Default()
	const period = 250 // elevated network delay: 1us per transaction

	fmt.Println("Measuring placements under elevated network delay (PERIOD=250)...")
	redisLocal := opts.KVLocal()
	redisRemote := opts.KVRemote(period)
	graphLocal := opts.GraphLocal()
	graphRemote := opts.GraphRemote(period)

	redisPenalty := redisLocal.Throughput / redisRemote.Throughput
	graphPenalty := float64(graphRemote.BFSTime) / float64(graphLocal.BFSTime)

	fmt.Printf("\n%-22s %15s %15s %10s\n", "workload", "local", "remote@delay", "penalty")
	fmt.Printf("%-22s %12.0f/s %12.0f/s %9.2fx\n",
		"redis (throughput)", redisLocal.Throughput, redisRemote.Throughput, redisPenalty)
	fmt.Printf("%-22s %15v %15v %9.1fx\n",
		"graph500 BFS (JCT)", graphLocal.BFSTime, graphRemote.BFSTime, graphPenalty)

	// Classify by measured sensitivity, as a QoS-aware control plane
	// would: a job slowed more than 2x by the delay is latency-sensitive.
	redisSensitive := redisPenalty > 2
	graphSensitive := graphPenalty > 2
	fmt.Printf("\nQoS classification: redis sensitive=%v, graph500 sensitive=%v\n", redisSensitive, graphSensitive)

	// Place accordingly: the sensitive workload keeps local memory (no
	// region); the tolerant one borrows a region from the pool's lender.
	if graphSensitive {
		fmt.Println("placement: graph500 -> local memory (QoS: protect the sensitive job)")
	}
	if !redisSensitive {
		p := cluster.NewPool(cluster.DefaultPoolConfig(1, 1, period))
		r, err := p.Attach(0, 64<<30)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("placement: redis -> %d GiB disaggregated from node %d (penalty only %.2fx)\n",
			r.Size>>30, p.Lenders[r.Lender].ID, redisPenalty)
	}

	naive := float64(graphRemote.BFSTime)
	qos := float64(graphLocal.BFSTime)
	fmt.Printf("\nQoS-aware placement cuts the sensitive job's completion time %.1fx (%v -> %v)\n",
		naive/qos, graphRemote.BFSTime, graphLocal.BFSTime)
}
