package cluster

import (
	"fmt"
	"testing"

	"thymesim/internal/metricsplane"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

// checkPacketBalance audits the borrowers' wire-packet pools after a
// drained run: every packet still counted live must have been lost at a
// site that drops packets — a lender's crash drops and lost serves, an
// injector gate's drops, or the switch's drops. It returns the live total.
func checkPacketBalance(t *testing.T, p *Pool) int {
	t.Helper()
	live, lost := 0, uint64(0)
	for _, b := range p.Borrowers {
		live += b.NIC.PacketsLive()
		lost += b.NIC.InjectorDropped()
	}
	for _, l := range p.Lenders {
		st := l.NIC.Stats()
		lost += st.CrashDrops + st.ServesLost
		if n := l.NIC.PacketsLive(); n != 0 {
			t.Errorf("lender %d NIC holds %d packets of its own", l.Index, n)
		}
	}
	if p.Switch != nil {
		lost += p.Switch.Dropped()
	}
	if uint64(live) != lost {
		t.Errorf("borrowers hold %d live packets, but %d were lost at drop sites", live, lost)
	}
	return live
}

// checkKernelDrained asserts that a drained kernel's slot table parks no
// callee: QueueStats counts the slots still referencing a handler, so
// zero means every heap event released its handler when it fired.
func checkKernelDrained(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if n := k.Pending(); n != 0 {
		t.Fatalf("%d events still pending after Run", n)
	}
	if qs := k.QueueStats(); qs.Parked != 0 {
		t.Errorf("drained kernel parks %d handlers in its slot table (%+v)", qs.Parked, qs)
	}
}

// checkPoolsDrained asserts that every per-fill free list got back what
// it lent once the kernel drained: backend transaction contexts, DRAM
// access contexts, each cable's segment (the beats between a sender's
// queue and its receiver's) and switch hops.
func checkPoolsDrained(t *testing.T, p *Pool) {
	t.Helper()
	live := func(what string, n int) {
		if n != 0 {
			t.Errorf("%s: %d pooled contexts still live after drain", what, n)
		}
	}
	for _, b := range p.Borrowers {
		for i, be := range b.Backends() {
			live(fmt.Sprintf("borrower %d backend %d", b.ID, i), be.TxnsLive())
		}
		live(fmt.Sprintf("borrower %d DRAM", b.ID), b.Mem.AccessesLive())
	}
	for _, l := range p.Lenders {
		live(fmt.Sprintf("lender %d DRAM", l.ID), l.Mem.AccessesLive())
	}
	links := p.links
	if p.Link != nil {
		links = append(links, p.Link)
	}
	for i, ln := range links {
		live(fmt.Sprintf("link %d a->b", i), ln.AtoB.FlightsLive())
		live(fmt.Sprintf("link %d b->a", i), ln.BtoA.FlightsLive())
	}
	if p.Switch != nil {
		live("switch hops", p.Switch.HopsLive())
	}
}

// TestPacketsLiveZeroAfterDrainedTestbed runs reads, writebacks and a
// probe through a fault-free two-node testbed with ARQ: once the kernel
// drains, every wire packet is back in its pool and no kernel slot holds
// a handler.
func TestPacketsLiveZeroAfterDrainedTestbed(t *testing.T) {
	cfg := DefaultConfig(4)
	arq := tfnic.DefaultARQConfig()
	cfg.ARQ = &arq
	tb := NewTestbed(cfg)
	h := tb.NewRemoteHierarchy()
	probed := false
	tb.K.At(0, func() {
		for i := 0; i < 256; i++ {
			h.Access(tb.RemoteAddr(uint64(i)*ocapi.CacheLineSize), 8, i%3 == 0, nil)
		}
		tb.Probe(sim.Millisecond, func(ok bool, _ sim.Duration) { probed = ok })
	})
	tb.K.Run()
	if !probed {
		t.Fatal("probe failed on a healthy testbed")
	}
	if tb.BorrowerNIC.Stats().RequestsSent == 0 {
		t.Fatal("no requests sent")
	}
	// Every audit reports, so a leak shows at its own site too.
	if live := checkPacketBalance(t, tb.Pool()); live != 0 {
		t.Errorf("%d packets live after a drained fault-free run", live)
	}
	checkKernelDrained(t, tb.K)
	checkPoolsDrained(t, tb.Pool())
}

// TestPacketsLiveZeroAfterDrainedPool does the same across a 4×2 pool on
// the switched fabric, with deadlines and ARQ armed, and checks that the
// plane exports the switch's drained hop count and every cable's drained
// segment.
func TestPacketsLiveZeroAfterDrainedPool(t *testing.T) {
	cfg := poolConfig(4, 2)
	arq := tfnic.DefaultARQConfig()
	cfg.Base.ARQ = &arq
	cfg.Base.FillDeadline = 200 * sim.Microsecond
	cfg.Base.Metrics = metricsplane.New()
	p := NewPool(cfg)
	for i := range p.Borrowers {
		r, err := p.Attach(i, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		h := p.Borrowers[i].NewRemoteHierarchy()
		p.K.At(0, func() {
			for j := 0; j < 64; j++ {
				h.Access(r.Addr(uint64(j)*ocapi.CacheLineSize), 8, j%2 == 0, nil)
			}
		})
	}
	p.K.Run()
	if live := checkPacketBalance(t, p); live != 0 {
		t.Errorf("%d packets live after a drained fault-free pool run", live)
	}
	checkKernelDrained(t, p.K)
	checkPoolsDrained(t, p)
	if p.Switch.Forwarded() == 0 {
		t.Fatal("no beats crossed the switch")
	}
	exported := map[string]int{}
	for _, s := range cfg.Base.Metrics.Snapshot() {
		if s.Name == "thymesim_switch_hops_live" || s.Name == "thymesim_link_flights_live" {
			exported[s.Name]++
			if s.Value != 0 {
				t.Errorf("%s%v = %v after drain", s.Name, s.Labels, s.Value)
			}
		}
	}
	// One hop gauge; one segment gauge per cable direction.
	if exported["thymesim_switch_hops_live"] != 1 || exported["thymesim_link_flights_live"] != 2*len(p.links) {
		t.Errorf("exported live gauges %v, want 1 hop and %d link series", exported, 2*len(p.links))
	}
}
