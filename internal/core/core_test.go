package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thymesim/internal/cluster"
	"thymesim/internal/pool"
	"thymesim/internal/sim"
	"thymesim/internal/workloads/stream"
)

// fastOptions shrinks everything for tests that only check plumbing.
func fastOptions() Options {
	o := Default()
	o.StreamElements = 1 << 13
	o.GraphScale = 9
	o.KVRequests = 5
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Paper().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.StreamElements = 1
	if err := bad.Validate(); err == nil {
		t.Error("bad stream elements accepted")
	}
	bad = Default()
	bad.GraphRoots = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad roots accepted")
	}
	bad = Default()
	bad.LLCBytes = 16
	if err := bad.Validate(); err == nil {
		t.Error("bad LLC accepted")
	}
	// Geometry cache.New would panic on: no ways, and three sets.
	bad = Default()
	bad.LLCWays = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero LLC ways accepted")
	}
	bad = Default()
	bad.LLCBytes, bad.LLCWays = 3<<12, 1
	if err := bad.Validate(); err == nil {
		t.Error("LLC with a non-power-of-two set count accepted")
	}
}

// FuzzOptionsValidate checks that Validate guards every panic a testbed
// build can reach from the options: whatever it accepts must build a
// testbed and a remote hierarchy.
func FuzzOptionsValidate(f *testing.F) {
	d := Default()
	f.Add(d.LLCBytes, d.LLCWays, d.StreamElements, d.GraphScale, d.GraphRoots)
	f.Add(3<<12, 1, d.StreamElements, d.GraphScale, d.GraphRoots)
	f.Add(64<<10, 0, d.StreamElements, d.GraphScale, d.GraphRoots)
	f.Add(64<<10, 1<<57, 16, 1, 1)
	f.Fuzz(func(t *testing.T, llcBytes, llcWays, elements, graphScale, graphRoots int) {
		o := Default()
		o.LLCBytes, o.LLCWays = llcBytes, llcWays
		o.StreamElements, o.GraphScale, o.GraphRoots = elements, graphScale, graphRoots
		if o.Validate() != nil {
			return
		}
		// An accepted LLC above 16 MiB differs from a smaller one only
		// in how much the build allocates; skip it to keep executions
		// small.
		if o.LLCBytes > 16<<20 {
			t.Skip()
		}
		o.Testbed(1).NewRemoteHierarchy()
	})
}

func TestDelayValidationLinearAndBDP(t *testing.T) {
	o := fastOptions()
	v := o.RunDelayValidation([]int64{1, 10, 50, 100, 200})
	// §III-B: strong linear correlation between PERIOD and latency.
	if v.R2 < 0.99 {
		t.Fatalf("r^2 = %v, want > 0.99", v.R2)
	}
	if v.Slope <= 0 {
		t.Fatalf("slope = %v", v.Slope)
	}
	// Latency range covers the paper's 1.2-150us regime endpoints.
	lat := v.Latency.Series[0]
	if first := lat.Points[0].Y; first < 0.5 || first > 5 {
		t.Fatalf("PERIOD=1 latency = %v us, want ~1.2", first)
	}
	// BDP constant near 16.5 kB.
	lo, hi, _ := v.BDP.Series[0].MinMaxY()
	if lo < 10 || hi > 25 {
		t.Fatalf("BDP range [%v, %v] kB, want ~16.5", lo, hi)
	}
	if hi/lo > 1.3 {
		t.Fatalf("BDP not constant: [%v, %v]", lo, hi)
	}
	// Bandwidth decreases monotonically with PERIOD.
	bws := v.Bandwidth.Series[0].Ys()
	for i := 1; i < len(bws); i++ {
		if bws[i] >= bws[i-1] {
			t.Fatalf("bandwidth not decreasing: %v", bws)
		}
	}
}

func TestResilienceCliff(t *testing.T) {
	o := fastOptions()
	r := o.RunResilience([]int64{1, 1000, 10000})
	if len(r.Points) != 3 {
		t.Fatal("missing points")
	}
	// PERIOD=1 and PERIOD=1000 survive; PERIOD=10000 fails detection —
	// the Fig. 4 cliff.
	if !r.Points[0].AttachOK || !r.Points[1].AttachOK {
		t.Fatalf("low periods failed attach: %+v", r.Points)
	}
	if r.Points[2].AttachOK {
		t.Fatal("PERIOD=10000 attached; expected FPGA detection timeout")
	}
	if !strings.Contains(r.Points[2].AttachReason, "not detected") {
		t.Fatalf("reason = %q", r.Points[2].AttachReason)
	}
	// PERIOD=1000 latency lands in the paper's ~400us regime.
	if l := r.Points[1].LatencyUs; l < 150 || l > 900 {
		t.Fatalf("PERIOD=1000 latency = %v us, want ~350-500", l)
	}
}

func TestTable1Regimes(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I run")
	}
	o := Default()
	tab := o.RunTable1()
	// Redis: ~1x at PERIOD=1, mild at PERIOD=1000.
	if tab.RedisLow > 1.3 {
		t.Errorf("Redis PERIOD=1 = %vx, want ~1x", tab.RedisLow)
	}
	if tab.RedisHigh < 1.1 || tab.RedisHigh > 4 {
		t.Errorf("Redis PERIOD=1000 = %vx, want ~1.7x regime", tab.RedisHigh)
	}
	// Graph500: several-x at PERIOD=1, hundreds-x+ at PERIOD=1000.
	if tab.BFSLow < 3 || tab.BFSLow > 20 {
		t.Errorf("BFS PERIOD=1 = %vx, want ~6x regime", tab.BFSLow)
	}
	if tab.BFSHigh < 200 {
		t.Errorf("BFS PERIOD=1000 = %vx, want catastrophic", tab.BFSHigh)
	}
	if tab.SSSPLow < 2 || tab.SSSPLow > 20 {
		t.Errorf("SSSP PERIOD=1 = %vx", tab.SSSPLow)
	}
	if tab.SSSPHigh < 150 {
		t.Errorf("SSSP PERIOD=1000 = %vx", tab.SSSPHigh)
	}
	// Ordering: Graph500 suffers far more than Redis (the QoS insight).
	if tab.BFSHigh < 20*tab.RedisHigh {
		t.Errorf("BFS (%vx) not >> Redis (%vx)", tab.BFSHigh, tab.RedisHigh)
	}
	if v, ok := tab.Table.Lookup("Redis", "PERIOD=1000"); !ok || v == "" {
		t.Error("table missing Redis row")
	}
}

func TestAppDegradationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	o := fastOptions()
	o.GraphScale = 11
	d := o.RunAppDegradation([]int64{1, 125, 1000})
	redis := d.Figure.Get("redis")
	bfs := d.Figure.Get("graph500-bfs")
	if redis == nil || bfs == nil {
		t.Fatal("series missing")
	}
	// At every delay point, graph degradation dominates Redis degradation.
	for i := range redis.Points {
		if bfs.Points[i].Y < redis.Points[i].Y {
			t.Errorf("at x=%v: bfs %v < redis %v", redis.Points[i].X, bfs.Points[i].Y, redis.Points[i].Y)
		}
	}
	// Redis stays within a few x even at the top of the sweep.
	if _, hi, _ := redis.MinMaxY(); hi > 5 {
		t.Errorf("redis max degradation %v, want moderate", hi)
	}
	// BFS grows with delay.
	ys := bfs.Ys()
	if ys[len(ys)-1] < 10*ys[0] {
		t.Errorf("bfs not growing: %v", ys)
	}
}

// TestAppDegradationBaseline: the PERIOD=1 sweep point is Fig. 5's
// baseline, and a sweep without one runs the same baseline as an extra
// point, so the two sweeps agree wherever they share a PERIOD and the
// PERIOD=1 slowdown is exactly 1.
func TestAppDegradationBaseline(t *testing.T) {
	o := fastOptions()
	with := o.RunAppDegradation([]int64{1, 125, 1000})
	without := o.RunAppDegradation([]int64{125, 1000})
	for _, name := range []string{"redis", "graph500-bfs", "graph500-sssp"} {
		w, wo := with.Figure.Get(name), without.Figure.Get(name)
		if w == nil || wo == nil || len(w.Points) != 3 || len(wo.Points) != 2 {
			t.Fatalf("%s: series missing or wrong length", name)
		}
		if y := w.Points[0].Y; y != 1 {
			t.Errorf("%s: PERIOD=1 slowdown %v, want exactly 1", name, y)
		}
		for i, p := range wo.Points {
			if q := w.Points[i+1]; p != q {
				t.Errorf("%s: shared point %d differs: %+v with PERIOD=1 in the sweep, %+v without", name, i, q, p)
			}
		}
	}
}

func TestMCBNEqualDivision(t *testing.T) {
	o := fastOptions()
	c := o.RunMCBN([]int{1, 2, 4})
	if len(c.BorrowerBps) != 3 {
		t.Fatal("missing points")
	}
	one := c.BorrowerBps[0]
	for i, n := range c.Counts {
		want := one / float64(n)
		got := c.BorrowerBps[i]
		if got < 0.8*want || got > 1.2*want {
			t.Errorf("n=%d per-instance %v, want ~%v (equal division)", n, got, want)
		}
	}
}

func TestMCLNFlat(t *testing.T) {
	o := fastOptions()
	c := o.RunMCLN([]int{0, 1, 4})
	base := c.BorrowerBps[0]
	for i, n := range c.Counts {
		if got := c.BorrowerBps[i]; got < 0.9*base {
			t.Errorf("n=%d borrower %v vs idle %v: lender contention leaked", n, got, base)
		}
	}
}

func TestMCLNPoolShiftsBottleneck(t *testing.T) {
	o := fastOptions()
	c := o.RunMCLNPool([]int{0, 4}, 20e9)
	if c.BorrowerBps[1] > 0.8*c.BorrowerBps[0] {
		t.Errorf("pool contention invisible: %v vs %v", c.BorrowerBps[1], c.BorrowerBps[0])
	}
}

func TestDistImpactTails(t *testing.T) {
	o := fastOptions()
	d := o.RunDistImpact(2 * sim.Microsecond)
	if len(d.Table.Rows) != 5 {
		t.Fatalf("rows = %d", len(d.Table.Rows))
	}
	constP99, ok1 := d.Table.Lookup("constant", "p99 fill latency (us)")
	paretoP99, ok2 := d.Table.Lookup("pareto", "p99 fill latency (us)")
	if !ok1 || !ok2 {
		t.Fatal("lookup failed")
	}
	var c, p float64
	if _, err := fmt.Sscan(constP99, &c); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(paretoP99, &p); err != nil {
		t.Fatal(err)
	}
	if p <= c {
		t.Errorf("pareto p99 %v not heavier than constant %v", p, c)
	}
}

func TestReportRenderAndCSV(t *testing.T) {
	o := fastOptions()
	r := &Report{
		Options:    o,
		Validation: o.RunDelayValidation([]int64{1, 50}),
		Resilience: o.RunResilience([]int64{1, 10000}),
		MCBN:       o.RunMCBN([]int{1, 2}),
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 2", "Figure 4", "FAILED", "Figure 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	dir := t.TempDir()
	if err := r.WriteCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig2_latency.csv", "fig4_attach.csv", "fig6_mcbn.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(data) == 0 {
			t.Errorf("%s empty", f)
		}
	}
}

func TestQoSPriorityProtectsSensitiveFlow(t *testing.T) {
	o := fastOptions()
	q := o.RunQoSPriority(100)
	// FIFO sharing inflates the chase's per-hop latency by an order of
	// magnitude; priority classes restore it to near-alone levels while
	// the bulk flow keeps most of its bandwidth.
	if q.ChaseFIFOUs < 5*q.ChaseAloneUs {
		t.Errorf("FIFO sharing too gentle: %v vs alone %v", q.ChaseFIFOUs, q.ChaseAloneUs)
	}
	if q.ChasePrioUs > 2*q.ChaseAloneUs {
		t.Errorf("priority did not protect the chase: %v vs alone %v", q.ChasePrioUs, q.ChaseAloneUs)
	}
	if q.BulkPrioBps < 0.5*q.BulkFIFOBps {
		t.Errorf("priority starved the bulk flow: %v vs %v", q.BulkPrioBps, q.BulkFIFOBps)
	}
	if len(q.Table.Rows) != 3 {
		t.Errorf("table rows = %d", len(q.Table.Rows))
	}
}

func TestMigrationImprovesHotChase(t *testing.T) {
	o := fastOptions()
	m := o.RunMigration(100)
	if m.Promotions == 0 {
		t.Fatal("no pages promoted")
	}
	if m.WithMigrationUs >= m.NoMigrationUs/2 {
		t.Fatalf("migration gained too little: %v vs %v us", m.WithMigrationUs, m.NoMigrationUs)
	}
	if len(m.Table.Rows) != 2 {
		t.Fatalf("table rows = %d", len(m.Table.Rows))
	}
}

func TestInterconnectComparisonShape(t *testing.T) {
	o := fastOptions()
	r := o.RunInterconnectComparison()
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	ocp, cxl := r.Rows[0], r.Rows[1]
	if cxl.ChaseUs >= ocp.ChaseUs {
		t.Errorf("CXL-like chase %v not faster than OpenCAPI %v", cxl.ChaseUs, ocp.ChaseUs)
	}
	if cxl.StreamGBs <= ocp.StreamGBs {
		t.Errorf("CXL-like STREAM %v not faster than OpenCAPI %v", cxl.StreamGBs, ocp.StreamGBs)
	}
	// But the advantage is incremental (tens of percent), not the orders
	// of magnitude that delay injection produces: framing overhead is a
	// second-order effect at 128B payloads.
	if cxl.StreamGBs > 2*ocp.StreamGBs {
		t.Errorf("framing advantage implausibly large: %v vs %v", cxl.StreamGBs, ocp.StreamGBs)
	}
}

func TestPrefetchAblationShape(t *testing.T) {
	o := fastOptions()
	r := o.RunPrefetchAblation(250)
	// Vanilla: prefetch hides most of the RTT.
	if r.OnVanillaUs > 0.6*r.OffVanillaUs {
		t.Errorf("vanilla gain too small: %v vs %v", r.OnVanillaUs, r.OffVanillaUs)
	}
	// Delayed: the injector rate floor (PERIOD*4ns = 1us) bounds the
	// prefetched scan from below.
	if r.OnDelayedUs < 0.9 {
		t.Errorf("delayed prefetch beat the injector floor: %v us", r.OnDelayedUs)
	}
	if r.OnDelayedUs > r.OffDelayedUs {
		t.Errorf("prefetch hurt under delay: %v vs %v", r.OnDelayedUs, r.OffDelayedUs)
	}
}

// TestPoolRunQueueStats checks the kernel's self-report on a small
// rack-scale run (one pool-contention point): the cables' arrival sources
// and the fixed-delay lanes carry most of the future events, so the heap
// stays shallow: with a heap entry per beat in flight it held 992.
func TestPoolRunQueueStats(t *testing.T) {
	o := fastOptions()
	const borrowers, lenders = 8, 4
	region := streamRegionBytes(o.StreamElements)
	p := cluster.NewPool(cluster.PoolConfig{
		Borrowers:      borrowers,
		Lenders:        lenders,
		Base:           o.TestbedConfig(1),
		Placement:      pool.LeastLoaded{},
		LenderCapacity: region * borrowers,
	})
	done := 0
	for i := 0; i < borrowers; i++ {
		r, err := p.Attach(i, region)
		if err != nil {
			t.Fatal(err)
		}
		cfg := stream.DefaultConfig(r.Addr(0))
		cfg.Elements = o.StreamElements
		run := stream.New(p.K, p.Borrowers[i].NewRemoteHierarchy(), cfg)
		p.K.At(0, func() { run.Run(func([]stream.Result) { done++ }) })
	}
	p.Run()
	if done != borrowers {
		t.Fatalf("%d of %d borrowers finished", done, borrowers)
	}
	qs := p.Kernel().QueueStats()
	t.Logf("%+v", qs)
	if qs.ToLanes <= qs.ToHeap || qs.ToSources <= qs.ToHeap {
		t.Fatalf("lanes carried %d future events, sources %d, the heap %d; want lanes and sources each to carry more than the heap",
			qs.ToLanes, qs.ToSources, qs.ToHeap)
	}
	if qs.HeapHigh > 64 {
		t.Fatalf("HeapHigh = %d, want at most 64", qs.HeapHigh)
	}
	if qs.Lanes != 0 || qs.Sources != 0 || qs.LanesHigh == 0 || qs.SourcesHigh == 0 || qs.HeapHigh == 0 {
		t.Fatalf("QueueStats() = %+v", qs)
	}
}
