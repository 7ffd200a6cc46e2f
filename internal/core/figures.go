package core

import (
	"fmt"
	"slices"

	"thymesim/internal/axis"
	"thymesim/internal/cluster"
	"thymesim/internal/control"
	"thymesim/internal/inject"
	"thymesim/internal/metrics"
	"thymesim/internal/sim"
	"thymesim/internal/sweep"
	"thymesim/internal/workloads/stream"
)

// DelayValidation holds the Figs. 2–3 results.
type DelayValidation struct {
	// Latency is Fig. 2: STREAM-measured fill latency (us) vs PERIOD.
	Latency *metrics.Figure
	// Bandwidth is Fig. 3: STREAM bandwidth (GB/s) vs PERIOD.
	Bandwidth *metrics.Figure
	// BDP is the bandwidth-delay product (kB) vs PERIOD (Fig. 3's
	// constancy claim).
	BDP *metrics.Figure
	// Slope/Intercept/R2 quantify §III-B's "strong linear correlation
	// between PERIOD and application-level latency".
	Slope, Intercept, R2 float64
}

// RunDelayValidation reproduces Figs. 2 and 3: STREAM on the borrower,
// lender idle, sweeping the injector PERIOD.
func (o Options) RunDelayValidation(periods []int64) *DelayValidation {
	v := &DelayValidation{
		Latency:   &metrics.Figure{Title: "Figure 2: STREAM latency vs delay injection", XLabel: "PERIOD (FPGA cycles)", YLabel: "latency (us)", LogX: true, LogY: true},
		Bandwidth: &metrics.Figure{Title: "Figure 3: STREAM bandwidth vs delay injection", XLabel: "PERIOD (FPGA cycles)", YLabel: "bandwidth (GB/s)", LogX: true, LogY: true},
		BDP:       &metrics.Figure{Title: "Figure 3 (inset): bandwidth-delay product", XLabel: "PERIOD (FPGA cycles)", YLabel: "BDP (kB)", LogX: true},
	}
	lat := v.Latency.AddSeries("stream")
	bw := v.Bandwidth.AddSeries("stream")
	bdp := v.BDP.AddSeries("stream")
	ms := sweep.Map(o.Workers, len(periods), nil, func(i int) StreamMeasurement {
		return o.StreamRemote(periods[i])
	})
	for i, p := range periods {
		m := ms[i]
		lat.Add(float64(p), m.FillLatUs)
		bw.Add(float64(p), m.BandwidthBps/1e9)
		bdp.Add(float64(p), m.BandwidthBps*m.FillLatUs/1e6/1e3)
	}
	if lat.Len() >= 2 {
		v.Slope, v.Intercept, v.R2 = lat.LinearFit()
	}
	return v
}

// ResiliencePoint is one row of the Fig. 4 stress test.
type ResiliencePoint struct {
	Period int64
	// AttachOK reports whether the FPGA hot-plug handshake completed
	// within the detection timeout.
	AttachOK     bool
	AttachReason string
	// LatencyUs is the STREAM-measured latency (only when attached).
	LatencyUs float64
	// Crashed marks the system-level failure mode (detection timeout).
	Crashed bool
}

// Resilience holds the Fig. 4 results.
type Resilience struct {
	Points []ResiliencePoint
	Figure *metrics.Figure
}

// RunResilience reproduces Fig. 4: exponentially increasing PERIOD, with
// the libthymesisflow attach handshake deciding whether the system
// survives, then STREAM measuring latency on survivors.
func (o Options) RunResilience(periods []int64) *Resilience {
	res := &Resilience{
		Figure: &metrics.Figure{Title: "Figure 4: reliability under heavy delay injection", XLabel: "PERIOD (FPGA cycles)", YLabel: "latency (us)", LogX: true, LogY: true},
	}
	s := res.Figure.AddSeries("stream")
	res.Points = sweep.Map(o.Workers, len(periods), nil, func(i int) ResiliencePoint {
		p := periods[i]
		tb := o.Testbed(p)
		var attach control.AttachResult
		// Start the handshake off the slot grid, as a real attach would
		// land at an arbitrary counter phase.
		tb.K.At(sim.Time(7*sim.Microsecond), func() {
			control.Attach(tb, control.DefaultAttachConfig(), func(r control.AttachResult) { attach = r })
		})
		tb.K.Run()
		pt := ResiliencePoint{Period: p, AttachOK: attach.OK, AttachReason: attach.Reason, Crashed: !attach.OK}
		if attach.OK {
			m := o.runStream(tb, tb.NewRemoteHierarchy(), tb.RemoteAddr(0))
			pt.LatencyUs = m.FillLatUs
		}
		return pt
	})
	for _, pt := range res.Points {
		if pt.AttachOK {
			s.Add(float64(pt.Period), pt.LatencyUs)
		}
	}
	return res
}

// Table1 holds the Table I reproduction: slowdown relative to local memory
// at PERIOD=1 and PERIOD=1000.
type Table1 struct {
	RedisLow, RedisHigh float64
	BFSLow, BFSHigh     float64
	SSSPLow, SSSPHigh   float64
	Table               *metrics.Table
}

// RunTable1 reproduces Table I.
func (o Options) RunTable1() *Table1 {
	t := &Table1{}
	// Six independent single-testbed measurements; fan them across the
	// pool. Each job writes only its own variable, and sweep.Run's join
	// orders all writes before the reads below. A Graph500 job dwarfs a
	// Redis one, and a remote run a local one, so they go first.
	var kvLocal, kvLow, kvHigh KVMeasurement
	var gLocal, gLow, gHigh GraphMeasurement
	jobs := []struct {
		cost int
		run  func()
	}{
		{0, func() { kvLocal = o.KVLocal() }},
		{0, func() { kvLow = o.KVRemote(1) }},
		{0, func() { kvHigh = o.KVRemote(1000) }},
		{1, func() { gLocal = o.GraphLocal() }},
		{2, func() { gLow = o.GraphRemote(1) }},
		{2, func() { gHigh = o.GraphRemote(1000) }},
	}
	sweep.Run(o.Workers, len(jobs), func(i int) int { return jobs[i].cost }, func(i int) { jobs[i].run() })
	t.RedisLow = kvLocal.Throughput / kvLow.Throughput
	t.RedisHigh = kvLocal.Throughput / kvHigh.Throughput

	t.BFSLow = float64(gLow.BFSTime) / float64(gLocal.BFSTime)
	t.BFSHigh = float64(gHigh.BFSTime) / float64(gLocal.BFSTime)
	t.SSSPLow = float64(gLow.SSSPTime) / float64(gLocal.SSSPTime)
	t.SSSPHigh = float64(gHigh.SSSPTime) / float64(gLocal.SSSPTime)

	t.Table = &metrics.Table{
		Title:   "Table I: impact of high delay on application performance (slowdown vs local)",
		Columns: []string{"workload", "PERIOD=1", "PERIOD=1000"},
	}
	row := func(name string, lo, hi float64) {
		t.Table.AddRow(name, fmt.Sprintf("%.3gx", lo), fmt.Sprintf("%.4gx", hi))
	}
	row("Redis", t.RedisLow, t.RedisHigh)
	row("Graph500 BFS", t.BFSLow, t.BFSHigh)
	row("Graph500 SSSP", t.SSSPLow, t.SSSPHigh)
	return t
}

// AppDegradation holds the Fig. 5 results: per-application slowdown vs
// injected delay.
type AppDegradation struct {
	Figure *metrics.Figure
}

// RunAppDegradation reproduces Fig. 5, sweeping PERIOD and normalizing to
// each application's vanilla-remote (PERIOD=1) performance, the paper's
// "original baseline runtime when running on vanilla ThymesisFlow".
func (o Options) RunAppDegradation(periods []int64) *AppDegradation {
	fig := &metrics.Figure{
		Title:  "Figure 5: application performance degradation vs injected delay",
		XLabel: "injected delay, STREAM-measured (us)",
		YLabel: "slowdown vs vanilla ThymesisFlow",
		LogX:   true, LogY: true,
	}
	redis := fig.AddSeries("redis")
	bfs := fig.AddSeries("graph500-bfs")
	sssp := fig.AddSeries("graph500-sssp")

	type degPoint struct {
		x  float64
		kv KVMeasurement
		g  GraphMeasurement
	}
	// The sweep's PERIOD=1 point is the baseline: the same deterministic
	// runs, so they are not simulated twice. A sweep without one adds the
	// baseline as its first point, where the long Graph500 run starts at
	// once instead of idling a worker at the tail.
	nBase, base := 0, slices.Index(periods, 1) // base indexes pts
	if base < 0 {
		nBase, base = 1, 0
	}
	pts := sweep.Map(o.Workers, nBase+len(periods), nil, func(i int) degPoint {
		if i < nBase {
			return degPoint{kv: o.KVRemote(1), g: o.GraphRemote(1)}
		}
		p := periods[i-nBase]
		// The paper quantifies injected delay by the latency STREAM
		// measures at that PERIOD (Fig. 2's calibration); do the same.
		return degPoint{
			x:  o.StreamRemote(p).FillLatUs,
			kv: o.KVRemote(p),
			g:  o.GraphRemote(p),
		}
	})
	gBase, kvBase := pts[base].g, pts[base].kv
	for _, pt := range pts[nBase:] {
		redis.Add(pt.x, kvBase.Throughput/pt.kv.Throughput)
		bfs.Add(pt.x, float64(pt.g.BFSTime)/float64(gBase.BFSTime))
		sssp.Add(pt.x, float64(pt.g.SSSPTime)/float64(gBase.SSSPTime))
	}
	return &AppDegradation{Figure: fig}
}

// Contention holds a Fig. 6 or Fig. 7 style result: per-instance STREAM
// bandwidth at the borrower vs concurrency.
type Contention struct {
	Figure *metrics.Figure
	// BorrowerBps[i] is the borrower-observed bandwidth with Counts[i]
	// concurrent instances.
	Counts      []int
	BorrowerBps []float64
}

// RunMCBN reproduces Fig. 6: N STREAM instances on the borrower node, all
// using disaggregated memory, reporting mean per-instance bandwidth.
func (o Options) RunMCBN(counts []int) *Contention {
	return o.runMCBN(counts, o.TestbedConfig)
}

func (o Options) runMCBN(counts []int, mkCfg func(int64) cluster.Config) *Contention {
	c := &Contention{
		Figure: &metrics.Figure{Title: "Figure 6: contention for bandwidth at borrower node (MCBN)", XLabel: "concurrent STREAM instances", YLabel: "per-instance bandwidth (GB/s)"},
		Counts: counts,
	}
	s := c.Figure.AddSeries("per-instance")
	// A point's size grows with its STREAM instance count.
	c.BorrowerBps = sweep.Map(o.Workers, len(counts), func(idx int) int { return counts[idx] }, func(idx int) float64 {
		n := counts[idx]
		tb := cluster.NewTestbed(mkCfg(1))
		var runners []*stream.Runner
		for i := 0; i < n; i++ {
			cfg := stream.DefaultConfig(tb.RemoteAddr(uint64(i) * (1 << 30)))
			cfg.Elements = o.StreamElements
			runners = append(runners, stream.New(tb.K, tb.NewRemoteHierarchy(), cfg))
		}
		var all [][]stream.Result
		tb.K.At(0, func() {
			for _, r := range runners {
				r := r
				r.Run(func(res []stream.Result) { all = append(all, res) })
			}
		})
		tb.K.Run()
		// n == 0 runs no instances; the mean over zero runs is zero
		// bandwidth, not 0/0 (which would put a NaN into the figure).
		if len(all) == 0 {
			return 0
		}
		var sum float64
		for _, res := range all {
			bw, _ := stream.Summary(res)
			sum += bw
		}
		return sum / float64(len(all))
	})
	for i, n := range counts {
		s.Add(float64(n), c.BorrowerBps[i]/1e9)
	}
	return c
}

// RunMCLN reproduces Fig. 7: one STREAM on the borrower using
// disaggregated memory while N STREAM instances run locally on the lender,
// contending for the lender's memory bus.
func (o Options) RunMCLN(counts []int) *Contention {
	return o.runMCLN(counts, o.TestbedConfig, "Figure 7: contention for bandwidth at lender node (MCLN)")
}

// RunMCLNPool is the §V ablation: the lender is a CPU-less memory pool
// with constrained device bandwidth, shifting the bottleneck from the
// network to the pool.
func (o Options) RunMCLNPool(counts []int, poolBps float64) *Contention {
	mk := func(period int64) cluster.Config { return o.PoolTestbedConfig(period, poolBps) }
	return o.runMCLN(counts, mk, fmt.Sprintf("Ablation (§V): MCLN against a %.0f GB/s memory pool", poolBps/1e9))
}

func (o Options) runMCLN(counts []int, mkCfg func(int64) cluster.Config, title string) *Contention {
	c := &Contention{
		Figure: &metrics.Figure{Title: title, XLabel: "concurrent lender-local STREAM instances", YLabel: "borrower bandwidth (GB/s)"},
		Counts: counts,
	}
	s := c.Figure.AddSeries("borrower")
	// A point's size grows with its lender-local contender count.
	c.BorrowerBps = sweep.Map(o.Workers, len(counts), func(idx int) int { return counts[idx] }, func(idx int) float64 {
		n := counts[idx]
		tb := cluster.NewTestbed(mkCfg(1))
		// Borrower's remote STREAM.
		bCfg := stream.DefaultConfig(tb.RemoteAddr(0))
		bCfg.Elements = o.StreamElements
		borrower := stream.New(tb.K, tb.NewRemoteHierarchy(), bCfg)
		// Lender-local contenders, sized to outlast the borrower run.
		var lenders []*stream.Runner
		for i := 0; i < n; i++ {
			lCfg := stream.DefaultConfig(cluster.LenderBase + uint64(64+i)<<30)
			lCfg.Elements = o.StreamElements
			lCfg.Iterations = 4
			lenders = append(lenders, stream.New(tb.K, tb.NewLenderLocalHierarchy(), lCfg))
		}
		var bRes []stream.Result
		tb.K.At(0, func() {
			for _, l := range lenders {
				l.Run(func([]stream.Result) {})
			}
			borrower.Run(func(res []stream.Result) { bRes = res })
		})
		tb.K.Run()
		bw, _ := stream.Summary(bRes)
		return bw
	})
	for i, n := range counts {
		s.Add(float64(n), c.BorrowerBps[i]/1e9)
	}
	return c
}

// DistImpact is the §VII extension: STREAM under distribution-based
// injection gates with equal mean delay.
type DistImpact struct {
	Figure *metrics.Figure
	// Rows maps distribution name to measured (bandwidth GB/s, mean fill
	// latency us).
	Table *metrics.Table
}

// RunDistImpact compares injection distributions at a fixed mean
// per-transaction delay.
func (o Options) RunDistImpact(meanDelay sim.Duration) *DistImpact {
	cycle := inject.DefaultFPGACycle
	rng := sim.NewRand(o.Seed ^ 0xD157)
	gates := []struct {
		name string
		gate axis.Gate
	}{
		{"period-grid", inject.NewPeriodGate(int64(meanDelay/cycle), cycle)},
		{"constant", inject.NewDistGate(inject.Constant{D: meanDelay}, cycle, rng.Split())},
		{"exponential", inject.NewDistGate(inject.Exponential{MeanD: meanDelay}, cycle, rng.Split())},
		{"pareto", inject.NewDistGate(inject.Pareto{Xm: meanDelay / 3, Alpha: 1.5}, cycle, rng.Split())},
		{"gilbert-elliott", inject.NewGilbertElliott(
			inject.Constant{D: meanDelay / 4},
			inject.Constant{D: 4 * meanDelay},
			0.05, 0.2, cycle, rng.Split())},
	}
	d := &DistImpact{
		Figure: &metrics.Figure{Title: "Extension (§VII): injection distributions at equal mean delay", XLabel: "distribution index", YLabel: "bandwidth (GB/s)"},
		Table:  &metrics.Table{Title: "Extension (§VII): distribution-based injection", Columns: []string{"distribution", "bandwidth (GB/s)", "mean fill latency (us)", "p99 fill latency (us)"}},
	}
	s := d.Figure.AddSeries("stream")
	// The gates above were drawn serially from the shared rng, so their
	// seeds are fixed before the pool starts; each point then owns its
	// gate and testbed outright.
	type distPoint struct {
		m   StreamMeasurement
		p99 float64
	}
	pts := sweep.Map(o.Workers, len(gates), nil, func(i int) distPoint {
		cfg := o.TestbedConfig(0)
		cfg.Gate = gates[i].gate
		cfg.Period = 0
		tb := cluster.NewTestbed(cfg)
		h := tb.NewRemoteHierarchy()
		m := o.runStream(tb, h, tb.RemoteAddr(0))
		return distPoint{m: m, p99: h.FillLatency().Quantile(0.99)}
	})
	for i, g := range gates {
		pt := pts[i]
		s.Add(float64(i), pt.m.BandwidthBps/1e9)
		d.Table.AddRow(g.name,
			fmt.Sprintf("%.3f", pt.m.BandwidthBps/1e9),
			fmt.Sprintf("%.2f", pt.m.FillLatUs),
			fmt.Sprintf("%.2f", pt.p99))
	}
	return d
}
