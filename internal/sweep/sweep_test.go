package sweep

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// scatteredCost is the hint the order-independence tests run with besides
// nil: a few ties, and largest points scattered through the index range.
func scatteredCost(i int) int { return (i * 7) % 5 }

func TestMapPreservesInputOrder(t *testing.T) {
	for _, cost := range []func(int) int{nil, scatteredCost} {
		for _, workers := range []int{1, 2, 8, 100} {
			got := Map(workers, 50, cost, func(i int) int { return i * i })
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d cost=%v: out[%d] = %d, want %d", workers, cost != nil, i, v, i*i)
				}
			}
		}
	}
}

func TestMapZeroPoints(t *testing.T) {
	if got := Map(4, 0, scatteredCost, func(i int) int { t.Fatal("fn called"); return 0 }); len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
	Run(4, 0, nil, func(i int) { t.Fatal("fn called") })
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	const n = 200
	for _, cost := range []func(int) int{nil, scatteredCost} {
		var calls [n]atomic.Int32
		Run(7, n, cost, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("cost=%v: index %d called %d times", cost != nil, i, c)
			}
		}
	}
}

// startOrder runs n gated points on two workers and returns the order in
// which they started. Every point blocks until released, and the test
// releases one at a time, so after the first two starts exactly one
// worker is free and each further start is the next point in dispatch
// order. The first two start concurrently, so they come back sorted.
func startOrder(t *testing.T, n int, cost func(int) int) []int {
	t.Helper()
	started := make(chan int, n)
	release := make([]chan struct{}, n)
	for i := range release {
		release[i] = make(chan struct{})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(2, n, cost, func(i int) {
			started <- i
			<-release[i]
		})
	}()
	order := []int{<-started, <-started}
	slices.Sort(order)
	close(release[order[0]])
	running := order[1]
	for len(order) < n {
		i := <-started
		order = append(order, i)
		close(release[running])
		running = i
	}
	close(release[running])
	<-done
	return order
}

func TestRunDispatchesLargestFirst(t *testing.T) {
	cost := []int{1, 5, 3, 5, 0, 3, 9}
	// 6 (cost 9) first; the two 5s and the two 3s in index order.
	want := []int{6, 1, 3, 2, 5, 0, 4}
	got := startOrder(t, len(cost), func(i int) int { return cost[i] })
	slices.Sort(want[:2])
	if !slices.Equal(got, want) {
		t.Fatalf("start order %v, want %v (first two in either order)", got, want)
	}
}

func TestRunNilCostKeepsIndexOrder(t *testing.T) {
	got := startOrder(t, 6, nil)
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("start order %v, want %v", got, want)
	}
}

func TestRunSerialIgnoresCost(t *testing.T) {
	var got []int
	Run(1, 6, func(i int) int { return i }, func(i int) { got = append(got, i) })
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("-j 1 call order %v, want index order %v", got, want)
	}
}

func TestTotalsCountsEveryPoint(t *testing.T) {
	points0, busy0 := Totals()
	Run(3, 9, scatteredCost, func(int) { time.Sleep(time.Millisecond) })
	Run(1, 2, nil, func(int) { time.Sleep(time.Millisecond) })
	points1, busy1 := Totals()
	if d := points1 - points0; d != 11 {
		t.Fatalf("Totals counted %d points, want 11", d)
	}
	if d := busy1 - busy0; d < 11*time.Millisecond {
		t.Fatalf("Totals summed %v of point wall, want >= 11ms", d)
	}
}

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	Run(workers, 64, scatteredCost, func(i int) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, cap is %d", p, workers)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	// With cost i the pool takes point 9 sixth: the report must name the
	// point's index, not its dispatch position.
	for _, cost := range []func(int) int{nil, func(i int) int { return i }} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic not propagated")
				}
				s, ok := r.(string)
				if !ok || !strings.Contains(s, "boom") {
					t.Fatalf("panic payload %v does not mention the cause", r)
				}
				if !strings.Contains(s, "point 9 ") {
					t.Fatalf("panic payload %q does not name point 9", s)
				}
			}()
			Run(4, 16, cost, func(i int) {
				if i == 9 {
					panic("boom")
				}
			})
		}()
	}
}
