package cluster

import (
	"strings"
	"testing"

	"thymesim/internal/metricsplane"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

// contracts returns the names of the contracts an audit reports broken.
func contracts(violations []string) map[string]bool {
	got := map[string]bool{}
	for _, v := range violations {
		name, _, _ := strings.Cut(v, ":")
		got[name] = true
	}
	return got
}

// burstPool builds a 4×2 pool on the switched fabric, with deadlines and
// ARQ armed, and schedules a 64-line burst of reads and writebacks from
// every borrower to its own region at time 0.
func burstPool(t *testing.T, plane *metricsplane.Plane) *Pool {
	t.Helper()
	cfg := poolConfig(4, 2)
	arq := tfnic.DefaultARQConfig()
	cfg.Base.ARQ = &arq
	cfg.Base.FillDeadline = 200 * sim.Microsecond
	cfg.Base.Metrics = plane
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
	return p
}

// TestPacketsLiveZeroAfterDrainedTestbed runs reads, writebacks and a
// probe through a fault-free two-node testbed with ARQ: once the kernel
// drains, the pool audits clean (every wire packet and pooled context
// back, no kernel slot holding a handler).
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
	if v := tb.Pool().Audit(); len(v) != 0 {
		t.Errorf("audit of a drained fault-free run: %q", v)
	}
}

// TestPacketsLiveZeroAfterDrainedPool does the same across a 4×2 pool on
// the switched fabric, with deadlines and ARQ armed, and checks that the
// plane exports the switch's drained hop count and every cable's drained
// segment.
func TestPacketsLiveZeroAfterDrainedPool(t *testing.T) {
	plane := metricsplane.New()
	p := burstPool(t, plane)
	p.Run()
	if v := p.Audit(); len(v) != 0 {
		t.Errorf("audit of a drained fault-free pool run: %q", v)
	}
	if p.Switch.Forwarded() == 0 {
		t.Fatal("no beats crossed the switch")
	}
	exported := map[string]int{}
	for _, s := range plane.Snapshot() {
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

// TestPoolAuditFlagsUndrainedRun checks that Audit names the contracts a
// run breaks: a drained burst audits empty, the same burst stopped
// mid-flight breaks the kernel-drained, live-count and exactly-once
// contracts, and a region the pool forgot breaks allocator conservation.
func TestPoolAuditFlagsUndrainedRun(t *testing.T) {
	p := burstPool(t, nil)
	p.Run()
	if v := p.Audit(); len(v) != 0 {
		t.Fatalf("drained pool: %q", v)
	}

	p = burstPool(t, nil)
	p.StepTo(sim.Time(sim.Microsecond))
	if qs := p.K.QueueStats(); qs.Sources == 0 {
		t.Fatalf("mid-burst: no beat in flight waits in a cable's source (%+v)", qs)
	}
	got := contracts(p.Audit())
	for _, c := range []string{"kernel drained", "live counts zero", "exactly-once"} {
		if !got[c] {
			t.Errorf("mid-burst audit does not report %q (got %v)", c, got)
		}
	}

	p = burstPool(t, nil)
	p.Run()
	b := p.Borrowers[0]
	b.regions = b.regions[:len(b.regions)-1]
	v := p.Audit()
	if got := contracts(v); len(got) != 1 || !got["allocator conserved"] {
		t.Errorf("forgotten region: audit %q, want allocator conserved only", v)
	}
}
