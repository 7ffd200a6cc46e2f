package cluster

import (
	"fmt"
	"testing"

	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/pool"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

// poolConfig returns a small N×M pool for tests: least-loaded placement
// and a modest per-lender reservation so attaches spread deterministically.
func poolConfig(borrowers, lenders int) PoolConfig {
	cfg := DefaultPoolConfig(borrowers, lenders, 1)
	cfg.Placement = pool.LeastLoaded{}
	cfg.LenderCapacity = 1 << 30
	return cfg
}

// TestPoolPairMatchesTestbed pins the compatibility contract: the 1×1 pool
// with the default pairing IS the two-node testbed — same RTT, same lender
// window, fills served by the paired lender's DRAM.
func TestPoolPairMatchesTestbed(t *testing.T) {
	tb := NewTestbed(DefaultConfig(1))
	regions := tb.Pool().Regions(0)
	if len(regions) != 1 {
		t.Fatalf("testbed pool has %d regions", len(regions))
	}
	r := regions[0]
	if r.Base != RemoteBase || r.Segment.Base != LenderBase || r.Size != tb.Config().WindowSize {
		t.Fatalf("testbed region %+v does not match the fixed window", r)
	}
	if got := tb.Pool().Lenders[0].Alloc.Allocated(); got != tb.Config().WindowSize {
		t.Fatalf("lender reservation carved %d bytes", got)
	}
	h := tb.NewRemoteHierarchy()
	tb.K.At(0, func() { h.Access(tb.RemoteAddr(0), 8, false, nil) })
	tb.K.Run()
	if tb.LenderMem.Reads() != 1 {
		t.Fatalf("lender reads = %d", tb.LenderMem.Reads())
	}
}

// TestPoolFanoutAcrossLenders drives one borrower with two regions placed
// on different lenders and checks that fills fan out by address: each
// lender's DRAM serves exactly the lines of its own region.
func TestPoolFanoutAcrossLenders(t *testing.T) {
	p := NewPool(poolConfig(2, 3))
	r0, err := p.Attach(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.Attach(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Lender == r1.Lender {
		t.Fatalf("least-loaded placed both regions on lender %d", r0.Lender)
	}
	b := p.Borrowers[0]
	h := b.NewRemoteHierarchy()
	const lines = 16
	done := 0
	p.K.At(0, func() {
		for i := 0; i < lines; i++ {
			off := uint64(i) * ocapi.CacheLineSize
			h.Access(r0.Addr(off), 8, false, func() { done++ })
			h.Access(r1.Addr(off), 8, false, func() { done++ })
		}
	})
	p.K.Run()
	if done != 2*lines {
		t.Fatalf("completed %d of %d accesses", done, 2*lines)
	}
	if got := p.Lenders[r0.Lender].Mem.Reads(); got != lines {
		t.Fatalf("lender %d served %d reads, want %d", r0.Lender, got, lines)
	}
	if got := p.Lenders[r1.Lender].Mem.Reads(); got != lines {
		t.Fatalf("lender %d served %d reads, want %d", r1.Lender, got, lines)
	}
	for l := 0; l < 3; l++ {
		if l != r0.Lender && l != r1.Lender && p.Lenders[l].Mem.Reads() != 0 {
			t.Fatalf("idle lender %d served %d reads", l, p.Lenders[l].Mem.Reads())
		}
	}
	if faults := b.NIC.Stats().TranslationFaults; faults != 0 {
		t.Fatalf("translation faults: %d", faults)
	}
}

// TestPoolRegionLifecycle exercises attach → grow → detach against the
// lender allocators: growth extends the window in place, detach returns
// the carving, and a drained lender coalesces back to one free span.
func TestPoolRegionLifecycle(t *testing.T) {
	p := NewPool(poolConfig(1, 2))
	r, err := p.Attach(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := p.Grow(r, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Base != r.Base || grown.Size != 2<<20 || grown.Lender != r.Lender {
		t.Fatalf("grow returned %+v", grown)
	}
	// The grown tail is reachable and served by the same lender.
	h := p.Borrowers[0].NewRemoteHierarchy()
	p.K.At(0, func() { h.Access(grown.Addr(grown.Size-ocapi.CacheLineSize), 8, false, nil) })
	p.K.Run()
	if got := p.Lenders[grown.Lender].Mem.Reads(); got != 1 {
		t.Fatalf("lender %d reads = %d", grown.Lender, got)
	}
	// Growing past the reservation fails crisply.
	if _, err := p.Grow(grown, p.Config().lenderCapacity()+1<<20); err == nil {
		t.Fatal("grow beyond the lender reservation accepted")
	}
	// So does an attach no lender's reservation can hold.
	if _, err := p.Attach(0, p.Config().lenderCapacity()+ocapi.CacheLineSize); err == nil {
		t.Fatal("attach beyond the lender reservation accepted")
	}
	// Stale handles are rejected: the pre-grow region no longer exists.
	if err := p.Detach(r); err == nil {
		t.Fatal("detach of stale (pre-grow) region accepted")
	}
	if err := p.Detach(grown); err != nil {
		t.Fatal(err)
	}
	if n := len(p.Regions(0)); n != 0 {
		t.Fatalf("%d regions left after detach", n)
	}
	a := p.Lenders[grown.Lender].Alloc
	if a.Allocated() != 0 {
		t.Fatalf("lender still has %d bytes carved after detach", a.Allocated())
	}
	if spans := a.FreeSpans(); len(spans) != 1 || spans[0].Size != a.Capacity() {
		t.Fatalf("drained lender free list not coalesced: %+v", spans)
	}
	// The window is gone: the address no longer translates.
	if _, _, ok := p.Borrowers[0].NIC.Translator().Translate(grown.Base); ok {
		t.Fatal("detached region still translates")
	}
}

// TestPoolExactlyOnceAccounting is the fan-out accounting audit: with ARQ
// and a fill deadline configured, every block op the borrower port issued
// is accounted exactly once — tracked by ARQ or expired before entering
// the NIC — even when fills spread across two lenders.
func TestPoolExactlyOnceAccounting(t *testing.T) {
	cfg := poolConfig(1, 2)
	arq := tfnic.DefaultARQConfig()
	cfg.Base.ARQ = &arq
	cfg.Base.FillDeadline = 200 * sim.Microsecond
	p := NewPool(cfg)
	r0, err := p.Attach(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.Attach(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Lender == r1.Lender {
		t.Fatalf("both regions on lender %d", r0.Lender)
	}
	b := p.Borrowers[0]
	h := b.NewRemoteHierarchy()
	const lines = 32
	p.K.At(0, func() {
		for i := 0; i < lines; i++ {
			off := uint64(i) * ocapi.CacheLineSize
			h.Access(r0.Addr(off), 8, i%2 == 0, nil)
			h.Access(r1.Addr(off), 8, i%2 == 1, nil)
		}
	})
	p.K.Run()
	be := b.Backend()
	issued := be.Reads() + be.Writes()
	st := b.ARQ.Stats()
	if issued != st.Tracked+be.ExpiredUnsent() {
		t.Fatalf("exactly-once violation: port completed %d ops, ARQ tracked %d + expired-unsent %d",
			issued, st.Tracked, be.ExpiredUnsent())
	}
	if st.Tracked != st.Completed+st.Dead {
		t.Fatalf("ARQ accounting: tracked %d != completed %d + dead %d", st.Tracked, st.Completed, st.Dead)
	}
	if p.Lenders[0].Mem.Reads()+p.Lenders[0].Mem.Writes() == 0 ||
		p.Lenders[1].Mem.Reads()+p.Lenders[1].Mem.Writes() == 0 {
		t.Fatal("fills did not fan across both lenders")
	}
}

// TestPoolManyBorrowers drives an 8×4 pool end to end: every borrower
// attaches through least-loaded placement (two regions per lender) and
// streams reads concurrently; everything completes across the shared
// switch without starving any node.
func TestPoolManyBorrowers(t *testing.T) {
	const B, M = 8, 4
	p := NewPool(poolConfig(B, M))
	if p.Switch == nil {
		t.Fatal("multi-node pool has no switch")
	}
	regions := make([]Region, B)
	perLender := make([]int, M)
	for i := 0; i < B; i++ {
		r, err := p.Attach(i, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		regions[i] = r
		perLender[r.Lender]++
	}
	for l, n := range perLender {
		if n != B/M {
			t.Fatalf("lender %d serves %d regions, want %d", l, n, B/M)
		}
	}
	const lines = 64
	done := make([]int, B)
	for i := 0; i < B; i++ {
		i := i
		h := p.Borrowers[i].NewRemoteHierarchy()
		p.K.At(0, func() {
			for j := 0; j < lines; j++ {
				h.Access(regions[i].Addr(uint64(j)*ocapi.CacheLineSize), 8, false, func() { done[i]++ })
			}
		})
	}
	p.K.Run()
	for i := 0; i < B; i++ {
		if done[i] != lines {
			t.Fatalf("borrower %d completed %d of %d reads", i, done[i], lines)
		}
		if faults := p.Borrowers[i].NIC.Stats().TranslationFaults; faults != 0 {
			t.Fatalf("borrower %d translation faults: %d", i, faults)
		}
	}
	if p.Switch.Dropped() != 0 {
		t.Fatalf("switch dropped %d beats", p.Switch.Dropped())
	}
}

// TestPoolSwitchContention pins the fabric's two contention shapes by the
// per-borrower bandwidth ratio of two streaming borrowers to one. Incast
// (both borrowers on one lender) shares the lender's switch port, so each
// borrower gets about half; disjoint borrower/lender pairs share no port
// through the output-queued switch, so neither slows the other.
func TestPoolSwitchContention(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lenders int
		lines   int
		lo, hi  float64
	}{
		{name: "incast", lenders: 1, lines: 1500, lo: 0.35, hi: 0.7},
		{name: "disjoint-pairs", lenders: 2, lines: 800, lo: 1 / 1.2, hi: 1.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// bandwidth streams tc.lines reads from each of the first
			// `active` borrowers of a 2×lenders pool and returns the
			// per-borrower bandwidth in bytes per simulated second.
			bandwidth := func(active int) float64 {
				p := NewPool(poolConfig(2, tc.lenders))
				done := 0
				for b := 0; b < active; b++ {
					r, err := p.Attach(b, 1<<20)
					if err != nil {
						t.Fatal(err)
					}
					if want := b % tc.lenders; r.Lender != want {
						t.Fatalf("borrower %d placed on lender %d, want %d", b, r.Lender, want)
					}
					h := p.Borrowers[b].NewRemoteHierarchy()
					p.K.At(0, func() {
						for i := 0; i < tc.lines; i++ {
							h.Access(r.Addr(uint64(i)*ocapi.CacheLineSize), 8, false, func() { done++ })
						}
					})
				}
				end := p.Run()
				if done != active*tc.lines {
					t.Fatalf("completed %d of %d reads", done, active*tc.lines)
				}
				return float64(tc.lines*ocapi.CacheLineSize) / sim.Time(end).Seconds()
			}
			ratio := bandwidth(2) / bandwidth(1)
			t.Logf("bandwidth ratio %.3f", ratio)
			if ratio < tc.lo || ratio > tc.hi {
				t.Fatalf("two-borrower/one-borrower bandwidth ratio = %.3f, want [%.3f, %.3f]", ratio, tc.lo, tc.hi)
			}
		})
	}
}

// TestPoolProbeAndCrashOverFabric checks the per-pair control plane on the
// switched fabric: a borrower probes a specific lender, loses it to a
// crash (probe deadline fires), and finds it again after restore.
func TestPoolProbeAndCrashOverFabric(t *testing.T) {
	p := NewPool(poolConfig(2, 2))
	b := p.Borrowers[1]
	target := p.Lenders[1]

	var okRTT sim.Duration
	crashSeen, restoredSeen := false, false
	deadline := 100 * sim.Microsecond

	p.K.At(0, func() {
		if !b.ProbeLender(target, deadline, func(ok bool, rtt sim.Duration) {
			if !ok {
				t.Error("healthy lender failed the probe")
			}
			okRTT = rtt
		}) {
			t.Error("probe not enqueued")
		}
	})
	p.K.At(sim.Time(200*sim.Microsecond), func() {
		p.CrashLender(1)
		if !b.ProbeLender(target, deadline, func(ok bool, rtt sim.Duration) {
			crashSeen = !ok
		}) {
			t.Error("probe not enqueued")
		}
	})
	p.K.At(sim.Time(400*sim.Microsecond), func() {
		p.RestoreLender(1, false)
		if !b.ProbeLender(target, deadline, func(ok bool, rtt sim.Duration) {
			restoredSeen = ok
		}) {
			t.Error("probe not enqueued")
		}
	})
	p.K.Run()
	if okRTT == 0 {
		t.Fatal("healthy probe never completed")
	}
	if !crashSeen {
		t.Fatal("probe to crashed lender did not miss its deadline")
	}
	if !restoredSeen {
		t.Fatal("probe after restore failed")
	}
	if b.StaleProbeResponses() != 0 {
		t.Fatalf("stale probe responses: %d", b.StaleProbeResponses())
	}
}

// TestPoolHierarchyVariants drives every hierarchy flavour a pool node
// offers — prioritized remote, borrower-local, lender-local — with tracing
// enabled, and checks each lands on the right memory.
func TestPoolHierarchyVariants(t *testing.T) {
	p := NewPool(poolConfig(2, 2))
	tr := p.EnableTracing(obs.Config{Sample: 1})
	if tr == nil || p.Tracer() != tr {
		t.Fatal("tracer not installed")
	}
	if p.Policy().Name() != (pool.LeastLoaded{}).Name() {
		t.Fatalf("policy = %s", p.Policy().Name())
	}
	if p.Kernel() != p.K {
		t.Fatal("Kernel() mismatch")
	}
	r, err := p.Attach(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b := p.Borrowers[1]
	other := 1 - r.Lender
	hRemote := b.NewRemoteHierarchyPrio(3)
	hLocal := b.NewLocalHierarchy()
	hLender := p.NewLenderLocalHierarchy(other)
	done := 0
	p.K.At(0, func() {
		hRemote.Access(r.Addr(0), 8, false, func() { done++ })
		hLocal.Access(0x1000, 8, true, func() { done++ })
		hLender.Access(0x2000, 8, false, func() { done++ })
	})
	p.K.Run()
	if done != 3 {
		t.Fatalf("completed %d of 3 accesses", done)
	}
	if got := p.Lenders[r.Lender].Mem.Reads(); got != 1 {
		t.Fatalf("remote lender reads = %d", got)
	}
	// The write-back LLC fills on a write miss; the dirty line stays cached.
	if got := b.Mem.Reads(); got != 1 {
		t.Fatalf("borrower-local fills = %d", got)
	}
	if got := p.Lenders[other].Mem.Reads(); got != 1 {
		t.Fatalf("lender-local fills = %d", got)
	}
	// The prio hierarchy created a second backend on the borrower.
	if got := len(b.Backends()); got != 2 {
		t.Fatalf("borrower has %d backends", got)
	}
}

// TestPoolProberAdapter checks the control-plane adapter (SendProbe and
// deadline Probe against an arbitrary pair) and that a lender brownout
// stretches fill latency through SetLenderSlowdown.
func TestPoolProberAdapter(t *testing.T) {
	p := NewPool(poolConfig(2, 2))
	pp := p.Prober(1, 0)
	if pp.Kernel() != p.K {
		t.Fatal("prober kernel mismatch")
	}
	var plain, deadline sim.Duration
	p.K.At(0, func() {
		if !pp.SendProbe(func(rtt sim.Duration) { plain = rtt }) {
			t.Error("SendProbe not enqueued")
		}
	})
	p.K.At(sim.Time(100*sim.Microsecond), func() {
		if !pp.Probe(sim.Millisecond, func(ok bool, rtt sim.Duration) {
			if !ok {
				t.Error("healthy probe missed a 1ms deadline")
			}
			deadline = rtt
		}) {
			t.Error("Probe not enqueued")
		}
	})
	// Brownout: the same fill takes longer once the lender's memory slows.
	r, err := p.Attach(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Borrowers[1].NewRemoteHierarchy()
	var nominal, slowed sim.Duration
	start2 := sim.Time(400 * sim.Microsecond)
	p.K.At(sim.Time(200*sim.Microsecond), func() {
		t0 := p.K.Now()
		h.Access(r.Addr(0), 8, false, func() { nominal = sim.Duration(p.K.Now() - t0) })
	})
	p.K.At(sim.Time(300*sim.Microsecond), func() { p.SetLenderSlowdown(r.Lender, 8) })
	p.K.At(start2, func() {
		t0 := p.K.Now()
		h.Access(r.Addr(ocapi.CacheLineSize), 8, false, func() { slowed = sim.Duration(p.K.Now() - t0) })
	})
	p.K.Run()
	if plain == 0 || deadline == 0 {
		t.Fatalf("probes did not complete (plain %v, deadline %v)", plain, deadline)
	}
	if nominal == 0 || slowed <= nominal {
		t.Fatalf("brownout fill %v not above nominal %v", slowed, nominal)
	}
}

// TestPoolLocalityPlacement pins the rack metric end to end: with two
// racks, locality placement keeps a borrower's region in its own rack
// while least-loaded would have spread further.
func TestPoolLocalityPlacement(t *testing.T) {
	cfg := poolConfig(2, 4)
	cfg.Placement = pool.Locality{}
	cfg.RackSize = 3 // rack 0: borrowers 0,1 + lender 0; rack 1: lenders 1-3
	p := NewPool(cfg)
	for i := 0; i < 2; i++ {
		r, err := p.Attach(i, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if r.Lender != 0 {
			t.Fatalf("borrower %d placed cross-rack on lender %d", i, r.Lender)
		}
	}
	// Rack 0's lender is full once capacity runs out; locality spills to
	// the next rack instead of failing.
	cfg2 := poolConfig(1, 2)
	cfg2.Placement = pool.Locality{}
	cfg2.RackSize = 2
	cfg2.LenderCapacity = 1 << 20
	p2 := NewPool(cfg2)
	r0, err := p2.Attach(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p2.Attach(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Lender != 0 || r1.Lender != 1 {
		t.Fatalf("locality spill placed %d then %d", r0.Lender, r1.Lender)
	}
}

// TestTestbedSurface covers the Testbed facade over the 1×1 pool: gate,
// tracing, prioritized and lender-local hierarchies.
func TestTestbedSurface(t *testing.T) {
	tb := NewTestbed(DefaultConfig(1))
	if tb.Gate() == nil {
		t.Fatal("testbed has no gate")
	}
	tr := tb.EnableTracing(obs.Config{Sample: 1})
	if tr == nil || tb.Tracer() != tr {
		t.Fatal("testbed tracer not installed")
	}
	hPrio := tb.NewRemoteHierarchyPrio(1)
	hLender := tb.NewLenderLocalHierarchy()
	done := 0
	tb.K.At(0, func() {
		hPrio.Access(tb.RemoteAddr(0), 8, false, func() { done++ })
		hLender.Access(0x3000, 8, true, func() { done++ })
	})
	tb.K.Run()
	if done != 2 {
		t.Fatalf("completed %d of 2", done)
	}
	// One remote fill plus one local write-allocate fill.
	if tb.LenderMem.Reads() != 2 {
		t.Fatalf("lender saw %d reads", tb.LenderMem.Reads())
	}
}

// TestRegionAddrBounds pins the Region.Addr guard.
func TestRegionAddrBounds(t *testing.T) {
	r := Region{Base: 0x1000, Size: 0x100}
	if got := r.Addr(0xff); got != 0x10ff {
		t.Fatalf("Addr = %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range offset did not panic")
		}
	}()
	r.Addr(0x100)
}

// TestPoolConfigValidate pins the pool configuration surface.
func TestPoolConfigValidate(t *testing.T) {
	if err := DefaultPoolConfig(2, 2, 1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultPoolConfig(0, 1, 1)
	if err := bad.Validate(); err == nil {
		t.Error("0 borrowers accepted")
	}
	bad = DefaultPoolConfig(1, 0, 1)
	if err := bad.Validate(); err == nil {
		t.Error("0 lenders accepted")
	}
	bad = DefaultPoolConfig(2, 2, 1)
	bad.LenderCapacity = 100
	if err := bad.Validate(); err == nil {
		t.Error("unaligned lender capacity accepted")
	}
}

// fillTrace drives a remote-fill workload through the switched pool in
// StepTo phases and returns each borrower's completion instants.
func fillTrace(t *testing.T, cfg PoolConfig, accesses int) [][]sim.Time {
	t.Helper()
	p := NewPool(cfg)
	p.EnableTracing(obs.Config{})
	traces := make([][]sim.Time, cfg.Borrowers)
	for b := range traces {
		r, err := p.Attach(b, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		bn := p.Borrowers[b]
		h := bn.NewRemoteHierarchy()
		b := b
		bn.K.At(0, func() {
			for i := 0; i < accesses; i++ {
				off := uint64(i%512) * ocapi.CacheLineSize
				h.Access(r.Addr(off), 8, i%3 == 0, func() {
					traces[b] = append(traces[b], bn.K.Now())
				})
			}
		})
	}
	for _, at := range []sim.Time{sim.Time(sim.Microsecond), sim.Time(5 * sim.Microsecond)} {
		p.StepTo(at)
		if p.Now() != at {
			t.Fatalf("StepTo(%v) left the pool at %v", at, p.Now())
		}
	}
	p.Run()
	return traces
}

// TestPoolShardsIgnored pins PoolConfig.Shards as a no-op: any value,
// negative included, builds the same single-kernel pool, which accepts
// tracing and completes every fill at the same instants.
func TestPoolShardsIgnored(t *testing.T) {
	const accesses = 160
	cfg := DefaultPoolConfig(3, 2, 1)
	cfg.LenderCapacity = 1 << 20
	want := fillTrace(t, cfg, accesses)
	for b := range want {
		if len(want[b]) != accesses {
			t.Fatalf("borrower %d completed %d of %d", b, len(want[b]), accesses)
		}
	}
	for _, shards := range []int{-1, 8} {
		cfg.Shards = shards
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Shards = %d rejected: %v", shards, err)
		}
		got := fillTrace(t, cfg, accesses)
		for b := range want {
			if fmt.Sprint(got[b]) != fmt.Sprint(want[b]) {
				t.Fatalf("Shards = %d: borrower %d trace diverged\n got %v\nwant %v", shards, b, got[b], want[b])
			}
		}
	}
}
