// Package sweep fans independent experiment points out across a bounded
// worker pool. Every figure in the paper is a sweep — PERIOD grids,
// instance counts, fault levels — and each point builds its own testbed
// with its own single-threaded kernel, so points share nothing and can run
// on separate goroutines.
//
// Dispatch order and result order are separate. Workers take points
// largest first, by a cost hint the caller derives from each point's own
// configuration (borrower count, contender count, workload kind), so the
// biggest points start at once instead of last, where they would leave
// the other workers idle at the tail. Equal costs and a nil hint keep
// index order, so the dispatch order is itself deterministic. Results are
// always collected by index, which together with per-point seed
// derivation makes parallel output byte-identical to serial: the worker
// count and the cost hint are throughput knobs, never results knobs. One
// worker runs the points in index order whatever the hint: that serial
// run is the reference execution.
package sweep

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Workers normalizes a worker-count request: values below 1 mean "one per
// available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Process-wide totals over every point any Run has finished; see Totals.
var (
	pointsDone atomic.Int64
	pointWall  atomic.Int64 // nanoseconds
)

// Totals returns how many points every Run in this process has finished
// and their summed wall time. Reading it before and after an experiment
// gives the experiment's point count and how busy its workers were: busy
// ÷ (workers × experiment wall).
func Totals() (points int64, busy time.Duration) {
	return pointsDone.Load(), time.Duration(pointWall.Load())
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines
// and returns the results indexed by input position. workers < 1 uses
// Workers' default. cost ranks the points for dispatch (largest first;
// nil keeps index order) and never affects the results. fn must be safe
// to call concurrently with itself; distinct calls must not share mutable
// state. A panic in any fn is re-raised on the caller's goroutine after
// the pool drains, naming the point's index.
func Map[T any](workers, n int, cost func(i int) int, fn func(i int) T) []T {
	out := make([]T, n)
	Run(workers, n, cost, func(i int) { out[i] = fn(i) })
	return out
}

// Run is Map without results: it calls fn(i) for every i in [0, n) across
// the pool and returns once all calls finish.
func Run(workers, n int, cost func(i int) int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial path: no goroutines and index order whatever the cost,
		// so -j 1 is the reference execution.
		for i := 0; i < n; i++ {
			timed(fn, i)
		}
		return
	}
	order := dispatchOrder(n, cost)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[panicValue]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				i := order[k]
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &panicValue{index: i, value: r})
						}
					}()
					timed(fn, i)
				}()
			}
		}()
	}
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(fmt.Sprintf("sweep: point %d panicked: %v", pv.index, pv.value))
	}
}

// dispatchOrder returns the point indexes in the order workers take them:
// descending cost, ties (and a nil cost) in index order.
func dispatchOrder(n int, cost func(i int) int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if cost == nil {
		return order
	}
	costs := make([]int, n)
	for i := range costs {
		costs[i] = cost(i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(costs[b], costs[a]) })
	return order
}

// timed calls fn(i) and adds the call to the process totals, also when
// it panics.
func timed(fn func(i int), i int) {
	start := time.Now()
	defer func() {
		pointWall.Add(int64(time.Since(start)))
		pointsDone.Add(1)
	}()
	fn(i)
}

type panicValue struct {
	index int
	value any
}
