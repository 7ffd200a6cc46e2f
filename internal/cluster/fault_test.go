package cluster

import (
	"testing"

	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

// arqConfig gives fast, bounded retransmission so fault tests converge
// quickly.
func faultARQConfig() *tfnic.ARQConfig {
	return &tfnic.ARQConfig{
		Timeout:     20 * sim.Microsecond,
		MaxRetries:  3,
		BackoffMult: 2,
		BackoffCap:  100 * sim.Microsecond,
		Seed:        1,
	}
}

// TestCrashBlackHolesRequests pins the crash fault domain: requests (and
// probes) vanish without a response, and the borrower only learns through
// ARQ death.
func TestCrashBlackHolesRequests(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ARQ = faultARQConfig()
	tb := NewTestbed(cfg)
	h := tb.NewRemoteHierarchy()

	probeOK := true
	tb.K.At(0, func() {
		tb.CrashLender()
		h.Access(tb.RemoteAddr(0), 8, false, nil)
		tb.Probe(sim.Millisecond, func(ok bool, _ sim.Duration) { probeOK = ok })
	})
	tb.K.Run()

	ls := tb.LenderNIC.Stats()
	if ls.CrashDrops == 0 {
		t.Fatal("crashed lender served requests")
	}
	if probeOK {
		t.Fatal("probe succeeded against a crashed lender")
	}
	st := tb.ARQ.Stats()
	if st.Dead != 1 || st.Retransmits == 0 {
		t.Fatalf("dead=%d retransmits=%d (ARQ must retry then give up)", st.Dead, st.Retransmits)
	}
	if tb.backend.Poisoned() != 1 {
		t.Fatalf("poisoned fills = %d", tb.backend.Poisoned())
	}
	if tb.LenderMem.Reads() != 0 {
		t.Fatalf("crashed lender touched DRAM: %d reads", tb.LenderMem.Reads())
	}
	if v := tb.Pool().Audit(); len(v) != 0 {
		t.Errorf("audit: %q", v)
	}
	if tb.BorrowerNIC.PacketsLive() == 0 {
		t.Fatal("black-holed requests left no packet live")
	}
}

// TestCrashLosesInFlightServes crashes the lender after a request reaches
// it but before the DRAM access completes: the serve must be lost, not
// answered by a ghost.
func TestCrashLosesInFlightServes(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ARQ = faultARQConfig()
	// A 10us DRAM access gives a wide, deterministic serve window to crash
	// inside of.
	cfg.LenderDRAM.AccessLatency = 10 * sim.Microsecond
	tb := NewTestbed(cfg)
	h := tb.NewRemoteHierarchy()

	tb.K.At(0, func() { h.Access(tb.RemoteAddr(0), 8, false, nil) })
	// The request reaches the lender well under 5us; its DRAM serve is
	// still pending at 5us when the crash hits.
	tb.K.At(sim.Time(5*sim.Microsecond), func() { tb.CrashLender() })
	// Restore (no wipe) before the ARQ backoff retry at ~60us lands.
	tb.K.At(sim.Time(40*sim.Microsecond), func() { tb.RestoreLender(false) })
	tb.K.Run()

	ls := tb.LenderNIC.Stats()
	if ls.ServesLost == 0 {
		t.Fatal("in-flight serve survived the crash")
	}
	st := tb.ARQ.Stats()
	if st.Retransmits == 0 {
		t.Fatal("lost serve never retransmitted")
	}
	if st.Completed != 1 || st.Dead != 0 {
		t.Fatalf("completed=%d dead=%d (retry after restore must succeed)", st.Completed, st.Dead)
	}
	if tb.backend.Poisoned() != 0 {
		t.Fatalf("poisoned = %d", tb.backend.Poisoned())
	}
	if v := tb.Pool().Audit(); len(v) != 0 {
		t.Errorf("audit: %q", v)
	}
	if tb.BorrowerNIC.PacketsLive() == 0 {
		t.Fatal("the lost serve left no packet live")
	}
}

// TestWipeNacksUntilProbeReArms pins the wiped-restore domain: block ops
// nack until a probe re-arms the window, then service resumes.
func TestWipeNacksUntilProbeReArms(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ARQ = faultARQConfig()
	tb := NewTestbed(cfg)
	h := tb.NewRemoteHierarchy()

	tb.K.At(0, func() {
		tb.CrashLender()
		tb.RestoreLender(true) // instant restart, window state lost
		h.Access(tb.RemoteAddr(0), 8, false, nil)
	})
	tb.K.Run()
	ls := tb.LenderNIC.Stats()
	if ls.WipeNacks == 0 {
		t.Fatal("wiped lender served a block request")
	}
	if st := tb.ARQ.Stats(); st.Dead != 1 || st.NackRetries == 0 {
		t.Fatalf("dead=%d nackRetries=%d (every retry must nack until death)", st.Dead, st.NackRetries)
	}

	// A probe re-arms the window; the next access serves normally.
	probed := false
	tb.K.Post(func() { tb.Probe(sim.Millisecond, func(ok bool, _ sim.Duration) { probed = ok }) })
	tb.K.Run()
	if !probed {
		t.Fatal("probe failed against a restored lender")
	}
	if tb.LenderNIC.Wiped() {
		t.Fatal("probe did not re-arm the window")
	}
	tb.K.Post(func() { h.Access(tb.RemoteAddr(ocapi.CacheLineSize), 8, false, nil) })
	tb.K.Run()
	if tb.LenderMem.Reads() != 1 {
		t.Fatalf("post-re-arm access did not reach lender DRAM: %d reads", tb.LenderMem.Reads())
	}
}

// TestBrownoutInflatesRemoteRTT pins that lender DRAM slowdown shows up in
// the end-to-end fill latency and then clears.
func TestBrownoutInflatesRemoteRTT(t *testing.T) {
	rtt := func(slow float64) sim.Duration {
		tb := NewTestbed(DefaultConfig(1))
		tb.SetLenderSlowdown(slow)
		h := tb.NewRemoteHierarchy()
		var done sim.Time
		tb.K.At(0, func() {
			h.Access(tb.RemoteAddr(0), 8, false, func() { done = tb.K.Now() })
		})
		tb.K.Run()
		return sim.Duration(done)
	}
	base, browned := rtt(1), rtt(8)
	if browned <= base {
		t.Fatalf("brownout RTT %v <= nominal %v", browned, base)
	}
	// The DRAM share of the RTT grew 8x; the wire share is unchanged, so
	// the total sits strictly between 1x and 8x.
	if browned >= 8*base {
		t.Fatalf("brownout RTT %v implausibly large vs %v", browned, base)
	}

	// Recovery: a fresh testbed browned then restored behaves nominally.
	tb := NewTestbed(DefaultConfig(1))
	tb.SetLenderSlowdown(8)
	tb.SetLenderSlowdown(1)
	h := tb.NewRemoteHierarchy()
	var done sim.Time
	tb.K.At(0, func() { h.Access(tb.RemoteAddr(0), 8, false, func() { done = tb.K.Now() }) })
	tb.K.Run()
	if sim.Duration(done) != base {
		t.Fatalf("post-recovery RTT %v, want %v", sim.Duration(done), base)
	}
}

// TestDeadlineBoundsCrashOutage pins the deadline integration: with a
// FillDeadline configured, a fill issued into a crash completes (poisoned)
// within the deadline instead of waiting out full ARQ death.
func TestDeadlineBoundsCrashOutage(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ARQ = faultARQConfig()
	cfg.FillDeadline = 30 * sim.Microsecond
	tb := NewTestbed(cfg)
	h := tb.NewRemoteHierarchy()

	var doneAt sim.Time
	tb.K.At(0, func() {
		tb.CrashLender()
		h.Access(tb.RemoteAddr(0), 8, false, func() { doneAt = tb.K.Now() })
	})
	tb.K.Run()
	if doneAt != sim.Time(cfg.FillDeadline) {
		t.Fatalf("completed at %v, want the %v deadline", doneAt, cfg.FillDeadline)
	}
	if tb.backend.Expired() != 1 || tb.backend.Poisoned() != 1 {
		t.Fatalf("expired=%d poisoned=%d", tb.backend.Expired(), tb.backend.Poisoned())
	}
}
