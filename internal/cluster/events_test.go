package cluster

import (
	"testing"

	"thymesim/internal/memport"
	"thymesim/internal/sim"
	"thymesim/internal/workloads/stream"
)

// runStream runs one small STREAM pass on h over the window at base and
// fails the test if it did not complete all four kernels.
func runStream(t *testing.T, k *sim.Kernel, h *memport.Hierarchy, base uint64, done *int) {
	t.Helper()
	cfg := stream.DefaultConfig(base)
	cfg.Elements = 1 << 12
	r := stream.New(k, h, cfg)
	k.At(0, func() {
		r.Run(func(res []stream.Result) {
			if len(res) == 4 {
				*done++
			}
		})
	})
}

// TestEventsPerFillPinned pins the kernel events a small STREAM costs on
// the 1×1 testbed and on a 4×2 pool, together with the line fills it
// makes. The counts repeat exactly run to run, so a change that puts a
// hop back on the datapath (or fuses one away) shows up here as a
// changed event count with unchanged fills; update the pins only for a
// deliberate change of the event structure. A packet costs two
// arbitration events on a NIC's egress (the routing merge and the
// injector-egress arbiter); a crossing costs one event per beat from a
// NIC's egress and two (serialization end, arrival) from a switch output
// port: 12 events per fill on the testbed, 18 on the pool.
func TestEventsPerFillPinned(t *testing.T) {
	t.Run("testbed", func(t *testing.T) {
		tb := NewTestbed(DefaultConfig(1))
		h := tb.NewRemoteHierarchy()
		done := 0
		runStream(t, tb.K, h, tb.RemoteAddr(0), &done)
		tb.K.Run()
		if done != 1 {
			t.Fatal("STREAM did not finish")
		}
		checkEventCount(t, tb.K.Processed(), h.Stats().LineFills, 9217, 768)
	})
	t.Run("pool4x2", func(t *testing.T) {
		p := NewPool(poolConfig(4, 2))
		var hs []*memport.Hierarchy
		done := 0
		for i := range p.Borrowers {
			r, err := p.Attach(i, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			h := p.Borrowers[i].NewRemoteHierarchy()
			hs = append(hs, h)
			runStream(t, p.K, h, r.Addr(0), &done)
		}
		p.K.Run()
		if done != len(hs) {
			t.Fatalf("%d of %d STREAM runs finished", done, len(hs))
		}
		var fills uint64
		for _, h := range hs {
			fills += h.Stats().LineFills
		}
		checkEventCount(t, p.K.Processed(), fills, 55300, 3072)
	})
}

func checkEventCount(t *testing.T, events, fills, wantEvents, wantFills uint64) {
	t.Helper()
	if fills != wantFills || events != wantEvents {
		t.Fatalf("%d events for %d line fills (%.2f per fill), want %d for %d",
			events, fills, float64(events)/float64(fills), wantEvents, wantFills)
	}
}
