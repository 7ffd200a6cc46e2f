package cluster

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"thymesim/internal/inject"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(1)
	bad.Period = 0
	if err := bad.Validate(); err == nil {
		t.Error("period 0 without gate accepted")
	}
	bad = DefaultConfig(1)
	bad.TagSpace = 4
	if err := bad.Validate(); err == nil {
		t.Error("tag space below MSHRs accepted")
	}
	bad = DefaultConfig(1)
	bad.WindowSize = 100
	if err := bad.Validate(); err == nil {
		t.Error("unaligned window accepted")
	}
	// Timing fields that used to reach panics in the NIC, channel or
	// injector constructors are rejected up front.
	for name, mutate := range map[string]func(*Config){
		"zero FPGA cycle":          func(c *Config) { c.FPGACycle = 0 },
		"negative FPGA cycle":      func(c *Config) { c.FPGACycle = -1 },
		"FPGA cycle over a second": func(c *Config) { c.FPGACycle = sim.Second + 1 },
		"injector slot too long":   func(c *Config) { c.Period = int64(sim.Second/c.FPGACycle) + 1 },
		"negative NIC pipeline":    func(c *Config) { c.NICPipeline = -1 },
		"negative port latency":    func(c *Config) { c.PortLatency = -1 },
		"negative propagation":     func(c *Config) { c.LinkPropagation = -1 },
		"propagation too long":     func(c *Config) { c.LinkPropagation = sim.Second + 1 },
		"zero bandwidth":           func(c *Config) { c.LinkBandwidthBps = 0 },
		"negative bandwidth":       func(c *Config) { c.LinkBandwidthBps = -1 },
		"NaN bandwidth":            func(c *Config) { c.LinkBandwidthBps = math.NaN() },
		"infinite bandwidth":       func(c *Config) { c.LinkBandwidthBps = math.Inf(1) },
	} {
		c := DefaultConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	edge := DefaultConfig(int64(sim.Second / DefaultConfig(1).FPGACycle))
	edge.NICPipeline, edge.PortLatency, edge.LinkPropagation = 0, 0, sim.Second
	if err := edge.Validate(); err != nil {
		t.Errorf("boundary config rejected: %v", err)
	}
}

// FuzzConfigValidate checks the config's timing fields: an accepted
// config must build and drain a 1×1 testbed and a 2×1 pool without
// panicking.
func FuzzConfigValidate(f *testing.F) {
	d := DefaultConfig(1)
	f.Add(int64(d.FPGACycle), int64(1), int64(d.NICPipeline), int64(d.PortLatency), int64(d.LinkPropagation), d.LinkBandwidthBps)
	f.Add(int64(0), int64(1), int64(0), int64(0), int64(0), 1e9)
	f.Add(int64(1), int64(1)<<40, int64(-1), int64(0), int64(0), 1.0)
	f.Add(int64(sim.Second), int64(1), int64(sim.Second), int64(sim.Second), int64(sim.Second), 1.0)
	f.Add(int64(4000), int64(2), int64(0), int64(0), int64(0), math.Inf(1))
	f.Fuzz(func(t *testing.T, cycle, period, pipeline, port, prop int64, bw float64) {
		c := DefaultConfig(period)
		c.FPGACycle, c.NICPipeline, c.PortLatency, c.LinkPropagation = sim.Duration(cycle), sim.Duration(pipeline), sim.Duration(port), sim.Duration(prop)
		c.LinkBandwidthBps = bw
		c.MSHRs, c.TagSpace = 4, 8
		if c.Validate() != nil {
			return
		}
		tb := NewTestbed(c)
		h := tb.NewRemoteHierarchy()
		tb.K.At(0, func() {
			for i := 0; i < 8; i++ {
				h.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, i%2 == 0, nil)
			}
		})
		tb.K.Run()
		if h.OutstandingFills() != 0 {
			t.Fatalf("testbed: %d fills outstanding after drain", h.OutstandingFills())
		}
		p := NewPool(PoolConfig{Borrowers: 2, Lenders: 1, Base: c, LenderCapacity: 1 << 30})
		for i := range p.Borrowers {
			r, err := p.Attach(i, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			h := p.Borrowers[i].NewRemoteHierarchy()
			p.K.At(0, func() {
				for j := 0; j < 8; j++ {
					h.Access(r.Addr(uint64(j)*ocapi.CacheLineSize), 8, j%2 == 1, nil)
				}
			})
		}
		p.K.Run()
		if n := p.K.Pending(); n != 0 {
			t.Fatalf("pool: %d events pending after drain", n)
		}
	})
}

func TestSingleRemoteReadRTT(t *testing.T) {
	tb := NewTestbed(DefaultConfig(1))
	h := tb.NewRemoteHierarchy()
	var doneAt sim.Time
	tb.K.At(0, func() {
		h.Access(tb.RemoteAddr(0), 8, false, func() { doneAt = tb.K.Now() })
	})
	tb.K.Run()
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	rtt := sim.Duration(doneAt)
	// The paper's vanilla remote access is ~1.2us; the model should land
	// in the same regime (0.8–2us).
	if rtt < 800*sim.Nanosecond || rtt > 2*sim.Microsecond {
		t.Fatalf("base RTT = %v, want ~1.2us", rtt)
	}
}

func TestRemoteReadGoesThroughLenderDRAM(t *testing.T) {
	tb := NewTestbed(DefaultConfig(1))
	h := tb.NewRemoteHierarchy()
	tb.K.At(0, func() { h.Access(tb.RemoteAddr(0), 8, false, nil) })
	tb.K.Run()
	if tb.LenderMem.Reads() != 1 {
		t.Fatalf("lender reads = %d", tb.LenderMem.Reads())
	}
	if tb.BorrowerMem.Reads() != 0 {
		t.Fatalf("borrower DRAM touched: %d", tb.BorrowerMem.Reads())
	}
	if tb.BorrowerNIC.Stats().TranslationFaults != 0 {
		t.Fatalf("translation faults: %d", tb.BorrowerNIC.Stats().TranslationFaults)
	}
}

func TestLocalHierarchyUsesBorrowerDRAM(t *testing.T) {
	tb := NewTestbed(DefaultConfig(1))
	h := tb.NewLocalHierarchy()
	tb.K.At(0, func() { h.Access(0, 8, false, nil) })
	tb.K.Run()
	if tb.BorrowerMem.Reads() != 1 || tb.LenderMem.Reads() != 0 {
		t.Fatalf("borrower=%d lender=%d", tb.BorrowerMem.Reads(), tb.LenderMem.Reads())
	}
}

func TestInjectionSlowsFills(t *testing.T) {
	measure := func(period int64) sim.Duration {
		tb := NewTestbed(DefaultConfig(period))
		h := tb.NewRemoteHierarchy()
		var done sim.Time
		tb.K.At(0, func() {
			// Dependent chain of 10 distinct lines.
			var next func(i int)
			next = func(i int) {
				if i == 10 {
					done = tb.K.Now()
					return
				}
				h.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, false, func() { next(i + 1) })
			}
			next(0)
		})
		tb.K.Run()
		return sim.Duration(done)
	}
	base := measure(1)
	slow := measure(2500) // 10us slots
	// Each dependent fill waits for its own slot: >= 9 full slots beyond
	// the first (which may land on slot 0 of the grid).
	if slow < 9*10*sim.Microsecond {
		t.Fatalf("period=2500 chain %v vs base %v: injection not delaying", slow, base)
	}
	if slow < 2*base {
		t.Fatalf("period=2500 chain %v not clearly slower than base %v", slow, base)
	}
}

func TestSaturatedBandwidthMatchesPeriod(t *testing.T) {
	// Saturated independent misses: the injector releases one request per
	// PERIOD cycles => line bandwidth = 128B / (PERIOD*4ns).
	const period = 50
	tb := NewTestbed(DefaultConfig(period))
	h := tb.NewRemoteHierarchy()
	const n = 2000
	tb.K.At(0, func() {
		for i := 0; i < n; i++ {
			h.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, false, nil)
		}
	})
	end := tb.K.Run()
	bw := float64(n*ocapi.CacheLineSize) / sim.Time(end).Seconds()
	want := 128.0 / (float64(period) * 4e-9)
	if bw < 0.9*want || bw > 1.1*want {
		t.Fatalf("bandwidth = %.3g B/s, want ~%.3g", bw, want)
	}
}

func TestBDPRoughlyConstantAcrossPeriods(t *testing.T) {
	bdp := func(period int64) float64 {
		tb := NewTestbed(DefaultConfig(period))
		h := tb.NewRemoteHierarchy()
		const n = 3000
		tb.K.At(0, func() {
			for i := 0; i < n; i++ {
				h.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, false, nil)
			}
		})
		end := tb.K.Run()
		bw := float64(n*ocapi.CacheLineSize) / sim.Time(end).Seconds()
		latUs := h.FillLatency().Mean()
		return bw * latUs / 1e6
	}
	a := bdp(20)
	b := bdp(100)
	ratio := a / b
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("BDP not constant: %v vs %v (ratio %v)", a, b, ratio)
	}
}

func TestProbeRoundTrip(t *testing.T) {
	tb := NewTestbed(DefaultConfig(1))
	var rtt sim.Duration
	tb.K.At(0, func() {
		if !tb.SendProbe(func(d sim.Duration) { rtt = d }) {
			t.Error("probe not accepted")
		}
	})
	tb.K.Run()
	if rtt <= 0 {
		t.Fatal("probe never returned")
	}
	if tb.LenderNIC.Stats().ProbesServed != 1 {
		t.Fatalf("probes served = %d", tb.LenderNIC.Stats().ProbesServed)
	}
}

func TestProbeDelayedByInjection(t *testing.T) {
	rtt := func(period int64) sim.Duration {
		tb := NewTestbed(DefaultConfig(period))
		var d sim.Duration
		// Issue off the slot grid: a probe arriving mid-slot waits for
		// the next COUNTER%PERIOD==0 instant.
		tb.K.At(sim.Time(3*sim.Microsecond), func() { tb.SendProbe(func(r sim.Duration) { d = r }) })
		tb.K.Run()
		return d
	}
	fast := rtt(1)
	slow := rtt(10000) // 40us slots
	if slow < fast+30*sim.Microsecond {
		t.Fatalf("probe not delayed: %v vs %v", slow, fast)
	}
}

func TestRemoteAddrBounds(t *testing.T) {
	tb := NewTestbed(DefaultConfig(1))
	if a := tb.RemoteAddr(0); a != RemoteBase {
		t.Fatalf("RemoteAddr(0) = %#x", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-window offset did not panic")
		}
	}()
	tb.RemoteAddr(tb.Config().WindowSize)
}

func TestSharedPortFairnessAcrossHierarchies(t *testing.T) {
	// Two hierarchies on the borrower sharing the NIC should split
	// bandwidth roughly evenly (MCBN mechanism).
	tb := NewTestbed(DefaultConfig(20))
	h1 := tb.NewRemoteHierarchy()
	h2 := tb.NewRemoteHierarchy()
	const n = 1500
	tb.K.At(0, func() {
		for i := 0; i < n; i++ {
			h1.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, false, nil)
			h2.Access(tb.RemoteAddr(uint64(n+i)*ocapi.CacheLineSize), 8, false, nil)
		}
	})
	tb.K.Run()
	f1 := h1.Stats().LineFills
	f2 := h2.Stats().LineFills
	if f1 != n || f2 != n {
		t.Fatalf("fills = %d/%d", f1, f2)
	}
	// Completion times interleaved: check per-hierarchy mean latency within 2x.
	l1 := h1.FillLatency().Mean()
	l2 := h2.FillLatency().Mean()
	ratio := l1 / l2
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("latency imbalance: %v vs %v", l1, l2)
	}
}

// Property: for arbitrary access patterns and PERIODs, the full datapath
// conserves transactions — every access completes, every request gets
// exactly one response, lender served = borrower sent, and no translation
// faults occur inside the window.
func TestDatapathConservationProperty(t *testing.T) {
	f := func(pattern []uint16, period8 uint8) bool {
		period := int64(period8%64) + 1
		tb := NewTestbed(DefaultConfig(period))
		h := tb.NewRemoteHierarchy()
		completions := 0
		tb.K.At(0, func() {
			for _, p := range pattern {
				addr := tb.RemoteAddr(uint64(p) * 512)
				h.Access(addr, 8, p%5 == 0, func() { completions++ })
			}
		})
		tb.K.Run()
		if completions != len(pattern) {
			return false
		}
		bs := tb.BorrowerNIC.Stats()
		ls := tb.LenderNIC.Stats()
		if bs.TranslationFaults != 0 {
			return false
		}
		// Every borrower request is served and answered exactly once.
		if bs.RequestsSent != ls.RequestsServed || ls.ResponsesSent != bs.ResponsesDelivered {
			return false
		}
		if bs.RequestsSent != bs.ResponsesDelivered {
			return false
		}
		// Lender memory saw exactly the fills + writebacks.
		st := h.Stats()
		return tb.LenderMem.Reads()+tb.LenderMem.Writes() == st.LineFills+st.Writebacks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end recovery: with a lossy egress and ARQ, every access completes
// genuinely — drops become retransmissions, never hangs or poisons.
func TestARQRecoversThroughLossyLink(t *testing.T) {
	cfg := DefaultConfig(0)
	rng := sim.NewRand(41)
	cfg.Gate = inject.NewDropGate(inject.NewPeriodGate(1, cfg.FPGACycle), 0.2, rng)
	arq := tfnic.DefaultARQConfig()
	arq.Timeout = 20 * sim.Microsecond
	arq.MaxRetries = 10
	cfg.ARQ = &arq
	tb := NewTestbed(cfg)
	h := tb.NewRemoteHierarchy()
	const n = 300
	completed := 0
	tb.K.At(0, func() {
		for i := 0; i < n; i++ {
			h.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, false, func() { completed++ })
		}
	})
	tb.K.Run()
	if completed != n {
		t.Fatalf("completed %d/%d under 20%% loss with ARQ", completed, n)
	}
	s := tb.ARQ.Stats()
	if s.Retransmits == 0 {
		t.Fatal("no retransmissions under 20% loss")
	}
	if s.Dead != 0 {
		t.Fatalf("dead transactions = %d with a generous retry budget", s.Dead)
	}
	if tb.ARQ.Outstanding() != 0 || tb.ARQ.QueuedRetries() != 0 {
		t.Fatalf("leaked txns: outstanding=%d queued=%d", tb.ARQ.Outstanding(), tb.ARQ.QueuedRetries())
	}
	if p := tb.RemoteBackend().Poisoned(); p != 0 {
		t.Fatalf("poisoned completions = %d", p)
	}
}

// With corruption and ARQ, nacked requests are retransmitted until a clean
// copy gets through.
func TestARQRecoversThroughCorruptingLink(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.Gate = inject.NewBitErrorGate(inject.NewPeriodGate(1, cfg.FPGACycle), 1e-3, sim.NewRand(7))
	arq := tfnic.DefaultARQConfig()
	cfg.ARQ = &arq
	tb := NewTestbed(cfg)
	h := tb.NewRemoteHierarchy()
	const n = 200
	completed := 0
	tb.K.At(0, func() {
		for i := 0; i < n; i++ {
			h.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, false, func() { completed++ })
		}
	})
	tb.K.Run()
	if completed != n {
		t.Fatalf("completed %d/%d", completed, n)
	}
	if tb.ARQ.Stats().NackRetries == 0 {
		t.Fatal("no nack-driven retries at BER 1e-3")
	}
	if tb.LenderNIC.Stats().NacksSent == 0 {
		t.Fatal("lender sent no nacks")
	}
	if tb.RemoteBackend().Poisoned() != 0 {
		t.Fatalf("poisoned = %d", tb.RemoteBackend().Poisoned())
	}
}

// Without ARQ, a lossy link loses transactions: the run must still
// terminate (kernel drains) but with missing completions — the failure
// mode the recovery layer exists to fix.
func TestLossWithoutARQLosesAccesses(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.Gate = inject.NewDropGate(inject.NewPeriodGate(1, cfg.FPGACycle), 0.3, sim.NewRand(13))
	tb := NewTestbed(cfg)
	h := tb.NewRemoteHierarchy()
	const n = 100
	completed := 0
	tb.K.At(0, func() {
		for i := 0; i < n; i++ {
			h.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, false, func() { completed++ })
		}
	})
	tb.K.Run()
	if completed >= n {
		t.Fatalf("all %d accesses completed through a 30%% lossy link without ARQ", n)
	}
	// The lost accesses stay outstanding; every stranded packet is one
	// the gate dropped.
	if v := tb.Pool().Audit(); !reflect.DeepEqual(contracts(v), map[string]bool{"backend drained": true, "live counts zero": true}) {
		t.Errorf("audit: %q, want the hung accesses only", v)
	}
	if tb.BorrowerNIC.PacketsLive() == 0 {
		t.Fatal("gate drops left no packet live")
	}
}

// A probe that times out must free its waiter; a late response is counted
// stale, not delivered to a newer probe.
func TestProbeDeadlineExpiry(t *testing.T) {
	// Block the egress entirely for a while so the probe response can't
	// arrive before the deadline.
	cfg := DefaultConfig(0)
	cfg.Gate = inject.NewOutageGate([]inject.Window{{Start: 0, Duration: 100 * sim.Microsecond}}, cfg.FPGACycle)
	tb := NewTestbed(cfg)
	var outcomes []bool
	tb.K.At(0, func() {
		if !tb.Probe(10*sim.Microsecond, func(ok bool, _ sim.Duration) {
			outcomes = append(outcomes, ok)
		}) {
			t.Error("probe refused")
		}
	})
	tb.K.Run()
	if len(outcomes) != 1 || outcomes[0] {
		t.Fatalf("outcomes = %v, want one failure", outcomes)
	}
	if tb.ProbeWaiters() != 0 {
		t.Fatalf("leaked probe waiters: %d", tb.ProbeWaiters())
	}
	// The response eventually arrived after the outage with nobody waiting.
	if tb.StaleProbeResponses() != 1 {
		t.Fatalf("stale probe responses = %d", tb.StaleProbeResponses())
	}
}

// Unique probe tags: overlapping probes each get their own answer.
func TestConcurrentProbesDoNotStealResponses(t *testing.T) {
	tb := NewTestbed(DefaultConfig(1))
	answered := 0
	tb.K.At(0, func() {
		for i := 0; i < 8; i++ {
			if !tb.SendProbe(func(rtt sim.Duration) {
				if rtt <= 0 {
					t.Error("non-positive probe RTT")
				}
				answered++
			}) {
				t.Fatal("probe refused")
			}
		}
	})
	tb.K.Run()
	if answered != 8 {
		t.Fatalf("answered = %d/8", answered)
	}
	if tb.ProbeWaiters() != 0 {
		t.Fatalf("leaked waiters: %d", tb.ProbeWaiters())
	}
}
