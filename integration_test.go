package thymesim

import (
	"testing"

	"thymesim/internal/core"
	"thymesim/internal/sim"
)

// TestDeterminism: identical options and seeds produce identical results
// across full experiment runs — the property every other regression test
// relies on.
func TestDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		o := core.Default()
		o.StreamElements = 1 << 13
		m := o.StreamRemote(25)
		kv := o.KVRemote(25)
		return m.BandwidthBps, kv.Throughput
	}
	b1, t1 := run()
	b2, t2 := run()
	if b1 != b2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", b1, t1, b2, t2)
	}
}

// TestEndToEndDelayMonotonicity: across the full stack, raising PERIOD
// must never improve any workload.
func TestEndToEndDelayMonotonicity(t *testing.T) {
	o := core.Default()
	o.StreamElements = 1 << 13
	o.GraphScale = 9
	o.KVRequests = 5
	periods := []int64{1, 25, 250}
	var prevStream, prevKV float64
	var prevBFS sim.Duration
	for i, p := range periods {
		s := o.StreamRemote(p)
		g := o.GraphRemote(p)
		kv := o.KVRemote(p)
		if i > 0 {
			if s.BandwidthBps > prevStream*1.01 {
				t.Errorf("STREAM improved with delay: P=%d %v > %v", p, s.BandwidthBps, prevStream)
			}
			if g.BFSTime < prevBFS {
				t.Errorf("BFS improved with delay at P=%d", p)
			}
			if kv.Throughput > prevKV*1.01 {
				t.Errorf("Redis improved with delay at P=%d", p)
			}
		}
		prevStream, prevBFS, prevKV = s.BandwidthBps, g.BFSTime, kv.Throughput
	}
}

// TestPaperOptionsSmoke: the paper-sized configuration validates and the
// testbed constructed from it works (full paper-sized runs are exercised
// via cmd/characterize -paper, not in CI-speed tests).
func TestPaperOptionsSmoke(t *testing.T) {
	o := core.Paper()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	tb := o.Testbed(1)
	done := false
	tb.K.At(0, func() {
		h := tb.NewRemoteHierarchy()
		h.Access(tb.RemoteAddr(0), 8, false, func() { done = true })
	})
	tb.K.Run()
	if !done {
		t.Fatal("paper-sized testbed inert")
	}
}
