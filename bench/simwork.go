package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"thymesim/internal/cluster"
	"thymesim/internal/core"
	"thymesim/internal/memport"
	"thymesim/internal/ocapi"
	"thymesim/internal/pool"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
	"thymesim/internal/workloads/kvstore"
	"thymesim/internal/workloads/stream"
)

// counts are the layer counters read after a unit through public
// accessors. For a given seed and unit index they repeat exactly.
type counts struct {
	Units                               uint64
	Events, Fills, Accesses, Writebacks uint64
	CacheHits, CacheMisses              uint64
	TimersArmed, TimersCancelled        uint64
	TxBeats, RxBeats, WireBytes         uint64
	Forwarded, Dropped                  uint64
	Requests                            uint64
	ARQTracked, ARQRetransmits          uint64
	ARQCompleted, ARQTimeouts           uint64
	CrashDrops, WipeNacks               uint64
	DRAMAccesses                        uint64
	PortOps, Poisoned, Expired          uint64
	Attaches, Rejected, Detaches, Grows uint64
	SimPs                               uint64
	LinkUtilSum, DRAMUtilSum            float64
	Digest                              uint64
}

func (c *counts) add(o counts) {
	c.Units += o.Units
	c.Events += o.Events
	c.Fills += o.Fills
	c.Accesses += o.Accesses
	c.Writebacks += o.Writebacks
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.TimersArmed += o.TimersArmed
	c.TimersCancelled += o.TimersCancelled
	c.TxBeats += o.TxBeats
	c.RxBeats += o.RxBeats
	c.WireBytes += o.WireBytes
	c.Forwarded += o.Forwarded
	c.Dropped += o.Dropped
	c.Requests += o.Requests
	c.ARQTracked += o.ARQTracked
	c.ARQRetransmits += o.ARQRetransmits
	c.ARQCompleted += o.ARQCompleted
	c.ARQTimeouts += o.ARQTimeouts
	c.CrashDrops += o.CrashDrops
	c.WipeNacks += o.WipeNacks
	c.DRAMAccesses += o.DRAMAccesses
	c.PortOps += o.PortOps
	c.Poisoned += o.Poisoned
	c.Expired += o.Expired
	c.Attaches += o.Attaches
	c.Rejected += o.Rejected
	c.Detaches += o.Detaches
	c.Grows += o.Grows
	c.SimPs += o.SimPs
	c.LinkUtilSum += o.LinkUtilSum
	c.DRAMUtilSum += o.DRAMUtilSum
	c.Digest = c.Digest*1099511628211 ^ o.Digest
}

// unitOut is one unit's host timings, counters and audit outcome.
type unitOut struct {
	setup, run time.Duration
	// gc is the Go runtime's activity during the run phase.
	gc     goSample
	counts counts
	err    error
}

// simWorkload runs one unit of a simulated workload: build (timed as
// set-up), run to completion (timed as the run phase), then audit. Spans
// go to rec under root; rec may be off.
type simWorkload func(seed uint64, unit int, rec *recorder, root int) unitOut

// simWorkloadFor returns the unit function of a simulated workload.
func simWorkloadFor(name string) (simWorkload, bool) {
	switch name {
	case wStream:
		return streamUnit, true
	case wKV:
		return kvUnit, true
	case wChurn:
		return func(seed uint64, unit int, rec *recorder, root int) unitOut {
			return churnUnit(seed, unit, 0, rec, root)
		}, true
	}
	return nil, false
}

// unitRand derives a unit's generator from the run seed, so the same seed
// and unit index give the same inputs in any run.
func unitRand(seed uint64, unit int) *sim.Rand {
	return sim.NewRand(seed*0x9E3779B97F4A7C15 ^ uint64(unit+1)*0xBF58476D1CE4E5B9)
}

// digest folds simulated outputs into one value that changes when any of
// them does.
func digest(vals ...float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// recoverUnit turns a panic inside the simulator into a failed unit.
func recoverUnit(out *unitOut) {
	if p := recover(); p != nil {
		out.err = fmt.Errorf("panic: %v", p)
	}
}

// testbedCounts reads the 1×1 testbed's layer counters.
func testbedCounts(tb *cluster.Testbed, h *memport.Hierarchy) counts {
	st, cs := h.Stats(), h.CacheStats()
	ts := tb.K.TimerStats()
	b, l := tb.BorrowerNIC, tb.LenderNIC
	be := tb.RemoteBackend()
	return counts{
		Units:           1,
		Events:          tb.K.Processed(),
		Fills:           st.LineFills,
		Accesses:        st.Accesses,
		Writebacks:      st.Writebacks,
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		TimersArmed:     ts.Armed,
		TimersCancelled: ts.Cancelled,
		TxBeats:         b.TxQ.Pushed() + l.TxQ.Pushed(),
		RxBeats:         b.RxQ.Pushed() + l.RxQ.Pushed(),
		WireBytes:       b.TxQ.Bytes() + l.TxQ.Bytes(),
		Requests:        b.Stats().RequestsSent,
		CrashDrops:      l.Stats().CrashDrops,
		WipeNacks:       l.Stats().WipeNacks,
		DRAMAccesses:    tb.LenderMem.Reads() + tb.LenderMem.Writes(),
		PortOps:         be.Reads() + be.Writes(),
		Poisoned:        be.Poisoned(),
		Expired:         be.Expired(),
		SimPs:           uint64(tb.K.Now()),
		LinkUtilSum:     (tb.Link.AtoB.Utilization() + tb.Link.BtoA.Utilization()) / 2,
		DRAMUtilSum:     tb.LenderMem.Utilization(),
	}
}

// testbedDrained checks that nothing is left in flight after a 1×1 run.
func testbedDrained(tb *cluster.Testbed, h *memport.Hierarchy) error {
	if n := h.OutstandingFills(); n != 0 {
		return fmt.Errorf("%d line fills still outstanding", n)
	}
	if n := tb.RemoteBackend().Outstanding(); n != 0 {
		return fmt.Errorf("%d port transactions still outstanding", n)
	}
	if n := tb.K.Pending(); n != 0 {
		return fmt.Errorf("%d events still pending", n)
	}
	return nil
}

// Workload sizes, fixed so that later changes are measured on the same
// work.
const (
	streamPeriod   = 50
	streamElements = 1 << 16

	kvPeriod   = 10
	kvThreads  = 2
	kvConns    = 10
	kvRequests = 300
	kvKeys     = 1 << 14
	kvValue    = 512

	churnBorrowers = 48
	churnLenders   = 16
	churnRounds    = 24
	churnTags      = 64
	churnRoundGap  = 500 * sim.Microsecond
)

// streamUnit is W1: STREAM copy/scale/add/triad against remote memory
// with the MSHR window full.
func streamUnit(seed uint64, unit int, rec *recorder, root int) (out unitOut) {
	defer recoverUnit(&out)
	t0 := time.Now()
	sp := rec.begin("setup", root, unit)
	b := rec.begin("cluster.build", sp, unit)
	tb := cluster.NewTestbed(core.Default().TestbedConfig(streamPeriod))
	h := tb.NewRemoteHierarchy()
	rec.end(b)
	g := rec.begin("workloads.inputgen", sp, unit)
	// The seed places the arrays anywhere in the first 2 MiB of the window.
	off := uint64(unitRand(seed, unit).Intn(1<<14)) * ocapi.CacheLineSize
	cfg := stream.DefaultConfig(tb.RemoteAddr(off))
	cfg.Elements = streamElements
	r := stream.New(tb.K, h, cfg)
	rec.end(g)
	rec.end(sp)
	t1 := time.Now()
	g1 := readGo()

	rs := rec.begin("sim.run", root, unit)
	var res []stream.Result
	tb.K.At(0, func() { r.Run(func(x []stream.Result) { res = x }) })
	tb.K.Run()
	rec.end(rs)
	t2 := time.Now()
	out.gc = readGo().sub(g1)
	out.setup, out.run = t1.Sub(t0), t2.Sub(t1)

	a := rec.begin("audit", root, unit)
	defer rec.end(a)
	out.counts = testbedCounts(tb, h)
	bw, lat := stream.Summary(res)
	out.counts.Digest = digest(float64(unit), bw, lat, float64(out.counts.Fills), float64(out.counts.SimPs))
	switch {
	case len(res) != 4:
		out.err = fmt.Errorf("stream: %d kernel results, want 4", len(res))
	case bw <= 0 || lat <= 0:
		out.err = fmt.Errorf("stream: bandwidth %g latency %g", bw, lat)
	default:
		if out.err = r.Check(); out.err == nil {
			out.err = testbedDrained(tb, h)
		}
	}
	return out
}

// kvUnit is W2: a memtier-style closed loop against a Redis-like store
// whose heap lives in remote memory.
func kvUnit(seed uint64, unit int, rec *recorder, root int) (out unitOut) {
	defer recoverUnit(&out)
	t0 := time.Now()
	sp := rec.begin("setup", root, unit)
	b := rec.begin("cluster.build", sp, unit)
	tb := cluster.NewTestbed(core.Default().TestbedConfig(kvPeriod))
	h := tb.NewRemoteHierarchy()
	rec.end(b)
	g := rec.begin("workloads.inputgen", sp, unit)
	store := kvstore.NewStore(kvstore.DefaultConfig(tb.RemoteAddr(0)))
	srv := kvstore.NewServer(tb.K, h, store, kvstore.DefaultServerConfig())
	bc := kvstore.DefaultBenchConfig()
	bc.Threads, bc.ConnsPerThread, bc.RequestsPerClient = kvThreads, kvConns, kvRequests
	bc.KeySpace, bc.ValueBytes = kvKeys, kvValue
	bc.Seed = seed ^ uint64(unit)
	bc.Prepopulate = false
	kvstore.Prepopulate(store, bc, nil)
	rec.end(g)
	rec.end(sp)
	t1 := time.Now()
	g1 := readGo()

	rs := rec.begin("sim.run", root, unit)
	var res kvstore.BenchResult
	finished := false
	tb.K.At(0, func() {
		kvstore.RunBench(tb.K, srv, bc, func(r kvstore.BenchResult) { res, finished = r, true })
	})
	tb.K.Run()
	rec.end(rs)
	t2 := time.Now()
	out.gc = readGo().sub(g1)
	out.setup, out.run = t1.Sub(t0), t2.Sub(t1)

	a := rec.begin("audit", root, unit)
	defer rec.end(a)
	out.counts = testbedCounts(tb, h)
	want := uint64(bc.Clients() * bc.RequestsPerClient)
	st := srv.Stats()
	if finished {
		out.counts.Digest = digest(float64(unit), res.Throughput, res.LatencyUs.Mean(),
			res.LatencyUs.Quantile(0.99), float64(res.Sets), float64(out.counts.SimPs))
	}
	switch {
	case !finished:
		out.err = fmt.Errorf("kv: benchmark never completed")
	case res.Requests != want || res.Sets+res.Gets != res.Requests:
		out.err = fmt.Errorf("kv: %d requests (%d sets + %d gets), want %d", res.Requests, res.Sets, res.Gets, want)
	case st.Requests != want || st.Hits != res.Gets || st.Misses != 0:
		out.err = fmt.Errorf("kv: server saw %d requests, %d hits, %d misses for %d gets", st.Requests, st.Hits, st.Misses, res.Gets)
	case store.Size() != kvKeys:
		out.err = fmt.Errorf("kv: store holds %d keys, want %d", store.Size(), kvKeys)
	default:
		out.err = testbedDrained(tb, h)
	}
	return out
}

// churnUnit is W3: a 48×16 rack under ARQ and fill deadlines, with lender
// crashes, region churn and open-loop access bursts each round, audited
// like core.RunPoolChaos. shards > 1 runs the pool on partitioned kernels.
func churnUnit(seed uint64, unit, shards int, rec *recorder, root int) (out unitOut) {
	defer recoverUnit(&out)
	t0 := time.Now()
	sp := rec.begin("setup", root, unit)
	b := rec.begin("cluster.build", sp, unit)
	base := core.Default().TestbedConfig(1)
	arq := tfnic.DefaultARQConfig()
	base.ARQ = &arq
	base.FillDeadline = 200 * sim.Microsecond
	base.TagSpace = churnTags
	base.MSHRs = min(base.MSHRs, churnTags)
	p := cluster.NewPool(cluster.PoolConfig{
		Borrowers:      churnBorrowers,
		Lenders:        churnLenders,
		Base:           base,
		Placement:      pool.LeastLoaded{},
		Shards:         shards,
		LenderCapacity: 4 << 20,
	})
	hs := make([]*memport.Hierarchy, churnBorrowers)
	for i := range hs {
		hs[i] = p.Borrowers[i].NewRemoteHierarchy()
	}
	rec.end(b)
	g := rec.begin("workloads.inputgen", sp, unit)
	rng := unitRand(seed, unit)
	live := make([][]cluster.Region, churnBorrowers)
	// Completion callbacks run on each borrower's kernel; with shards those
	// advance concurrently, so each borrower counts into its own slot.
	completed := make([]uint64, churnBorrowers)
	dones := make([]func(), churnBorrowers)
	for i := range dones {
		slot := &completed[i]
		dones[i] = func() { *slot++ }
	}
	rec.end(g)
	rec.end(sp)
	t1 := time.Now()
	g1 := readGo()

	var c counts
	var issued uint64
	crashed := -1
	for round := 0; round < churnRounds; round++ {
		st := rec.begin("sim.step", root, unit)
		p.StepTo(sim.Time(round) * sim.Time(churnRoundGap))
		rec.end(st)

		ch := rec.begin("pool.churn", root, unit)
		// Restore last round's casualty wiped (a probe re-arms it), or
		// crash a fresh lender.
		if crashed >= 0 {
			p.RestoreLender(crashed, true)
			p.Borrowers[0].ProbeLender(p.Lenders[crashed], 100*sim.Microsecond, func(bool, sim.Duration) {})
			crashed = -1
		} else if rng.Float64() < 0.25 {
			crashed = rng.Intn(churnLenders)
			p.CrashLender(crashed)
		}
		for bi := range live {
			switch op := rng.Intn(10); {
			case op < 4:
				r, err := p.Attach(bi, uint64(rng.Intn(16)+1)*(64<<10))
				if err != nil {
					c.Rejected++
					break
				}
				live[bi] = append(live[bi], r)
				c.Attaches++
			case op < 6 && len(live[bi]) > 0:
				j := rng.Intn(len(live[bi]))
				if err := p.Detach(live[bi][j]); err != nil {
					out.err = err
					return out
				}
				live[bi] = append(live[bi][:j], live[bi][j+1:]...)
				c.Detaches++
			case op == 6 && len(live[bi]) > 0:
				j := rng.Intn(len(live[bi]))
				if grown, err := p.Grow(live[bi][j], live[bi][j].Size+64<<10); err == nil {
					live[bi][j] = grown
					c.Grows++
				}
			}
		}
		rec.end(ch)

		is := rec.begin("memport.issue", root, unit)
		for bi, regions := range live {
			if len(regions) == 0 {
				continue
			}
			r := regions[rng.Intn(len(regions))]
			lines := int(r.Size / ocapi.CacheLineSize)
			for a := rng.Intn(24) + 8; a > 0; a-- {
				off := uint64(rng.Intn(lines)) * ocapi.CacheLineSize
				issued++
				hs[bi].Access(r.Addr(off), 8, rng.Intn(2) == 0, dones[bi])
			}
		}
		rec.end(is)
	}
	rs := rec.begin("sim.run", root, unit)
	end := p.Run()
	rec.end(rs)
	t2 := time.Now()
	out.gc = readGo().sub(g1)
	out.setup, out.run = t1.Sub(t0), t2.Sub(t1)

	a := rec.begin("audit", root, unit)
	defer rec.end(a)
	c.Units = 1
	c.SimPs = uint64(end)
	c.Events = p.Processed()
	if p.K != nil {
		ts := p.K.TimerStats()
		c.TimersArmed, c.TimersCancelled = ts.Armed, ts.Cancelled
	}
	var done uint64
	var viol []string
	for bi, bn := range p.Borrowers {
		done += completed[bi]
		st, cs := hs[bi].Stats(), hs[bi].CacheStats()
		c.Fills += st.LineFills
		c.Accesses += st.Accesses
		c.Writebacks += st.Writebacks
		c.CacheHits += cs.Hits
		c.CacheMisses += cs.Misses
		be := bn.Backend()
		c.PortOps += be.Reads() + be.Writes()
		c.Poisoned += be.Poisoned()
		c.Expired += be.Expired()
		c.Requests += bn.NIC.Stats().RequestsSent
		as := bn.ARQ.Stats()
		c.ARQTracked += as.Tracked
		c.ARQRetransmits += as.Retransmits
		c.ARQCompleted += as.Completed
		c.ARQTimeouts += as.Timeouts
		if got := be.Reads() + be.Writes(); got != as.Tracked+be.ExpiredUnsent() {
			viol = append(viol, fmt.Sprintf("borrower %d exactly-once: port completed %d, ARQ tracked %d + expired-unsent %d",
				bi, got, as.Tracked, be.ExpiredUnsent()))
		}
		if as.Tracked != as.Completed+as.Dead {
			viol = append(viol, fmt.Sprintf("borrower %d ARQ: tracked %d != completed %d + dead %d",
				bi, as.Tracked, as.Completed, as.Dead))
		}
		if n := hs[bi].OutstandingFills(); n != 0 {
			viol = append(viol, fmt.Sprintf("borrower %d: %d fills outstanding", bi, n))
		}
	}
	for _, bn := range p.Borrowers {
		c.TxBeats += bn.NIC.TxQ.Pushed()
		c.RxBeats += bn.NIC.RxQ.Pushed()
		c.WireBytes += bn.NIC.TxQ.Bytes()
	}
	liveOn := make([]uint64, churnLenders)
	for _, regions := range live {
		for _, r := range regions {
			liveOn[r.Lender] += r.Segment.Size
		}
	}
	for l, ln := range p.Lenders {
		c.TxBeats += ln.NIC.TxQ.Pushed()
		c.RxBeats += ln.NIC.RxQ.Pushed()
		c.WireBytes += ln.NIC.TxQ.Bytes()
		c.CrashDrops += ln.NIC.Stats().CrashDrops
		c.WipeNacks += ln.NIC.Stats().WipeNacks
		c.DRAMAccesses += ln.Mem.Reads() + ln.Mem.Writes()
		c.DRAMUtilSum += ln.Mem.Utilization() / churnLenders
		al := ln.Alloc
		if al.Allocated()+al.FreeBytes() != al.Capacity() {
			viol = append(viol, fmt.Sprintf("lender %d capacity leak: %d + %d != %d", l, al.Allocated(), al.FreeBytes(), al.Capacity()))
		}
		if al.Allocated() != liveOn[l] {
			viol = append(viol, fmt.Sprintf("lender %d allocator holds %d bytes, live regions %d", l, al.Allocated(), liveOn[l]))
		}
	}
	c.Forwarded, c.Dropped = p.Switch.Forwarded(), p.Switch.Dropped()
	if issued != done {
		viol = append(viol, fmt.Sprintf("completion: %d accesses issued, %d completed", issued, done))
	}
	if c.Dropped != 0 {
		viol = append(viol, fmt.Sprintf("switch dropped %d beats", c.Dropped))
	}
	c.Digest = digest(float64(unit), float64(issued), float64(done), float64(c.Fills),
		float64(c.Poisoned), float64(c.Expired), float64(c.Attaches), float64(c.SimPs))
	out.counts = c
	if len(viol) > 0 {
		out.err = fmt.Errorf("rack-churn audit: %v", viol)
	}
	return out
}
