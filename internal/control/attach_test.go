package control

import (
	"strings"
	"testing"

	"thymesim/internal/sim"
)

// fakeProber answers probes after a fixed RTT.
type fakeProber struct {
	k     *sim.Kernel
	rtt   sim.Duration
	fail  int        // first n sends rejected
	sends []sim.Time // when each send was attempted
}

func (f *fakeProber) SendProbe(done func(sim.Duration)) bool {
	f.sends = append(f.sends, f.k.Now())
	if f.fail > 0 {
		f.fail--
		return false
	}
	rtt := f.rtt
	f.k.After(rtt, func() { done(rtt) })
	return true
}

func (f *fakeProber) Kernel() *sim.Kernel { return f.k }

func TestAttachSucceedsWithinDeadline(t *testing.T) {
	k := sim.NewKernel()
	p := &fakeProber{k: k, rtt: sim.Duration(sim.Microsecond)}
	cfg := AttachConfig{ConfigOps: 100, Timeout: sim.Duration(sim.Millisecond), Retry: sim.Duration(sim.Microsecond)}
	var res AttachResult
	k.At(0, func() { Attach(p, cfg, func(r AttachResult) { res = r }) })
	k.Run()
	if !res.OK || res.OpsDone != 100 {
		t.Fatalf("attach failed: %+v", res)
	}
	if res.Elapsed < 100*sim.Microsecond {
		t.Fatalf("elapsed = %v implausible", res.Elapsed)
	}
	if res.MaxRTT != sim.Duration(sim.Microsecond) {
		t.Fatalf("max rtt = %v", res.MaxRTT)
	}
}

func TestAttachTimesOutUnderHighDelay(t *testing.T) {
	k := sim.NewKernel()
	p := &fakeProber{k: k, rtt: 40 * sim.Microsecond} // PERIOD=10000-like
	cfg := AttachConfig{ConfigOps: 256, Timeout: 5 * sim.Millisecond, Retry: 10 * sim.Microsecond}
	var res AttachResult
	k.At(0, func() { Attach(p, cfg, func(r AttachResult) { res = r }) })
	k.Run()
	if res.OK {
		t.Fatalf("attach succeeded despite %v per op: %+v", p.rtt, res)
	}
	if !strings.Contains(res.Reason, "not detected") {
		t.Fatalf("reason = %q", res.Reason)
	}
	if res.OpsDone >= 256 {
		t.Fatalf("ops done = %d", res.OpsDone)
	}
}

func TestAttachRetriesOnBusyNIC(t *testing.T) {
	k := sim.NewKernel()
	p := &fakeProber{k: k, rtt: sim.Duration(sim.Microsecond), fail: 5}
	cfg := AttachConfig{ConfigOps: 10, Timeout: sim.Duration(sim.Millisecond), Retry: sim.Duration(sim.Microsecond)}
	var res AttachResult
	k.At(0, func() { Attach(p, cfg, func(r AttachResult) { res = r }) })
	k.Run()
	if !res.OK {
		t.Fatalf("attach with retries failed: %+v", res)
	}
}

func TestAttachCallbackExactlyOnce(t *testing.T) {
	k := sim.NewKernel()
	p := &fakeProber{k: k, rtt: sim.Duration(sim.Microsecond)}
	cfg := AttachConfig{ConfigOps: 2, Timeout: 10 * sim.Microsecond, Retry: sim.Duration(sim.Microsecond)}
	calls := 0
	k.At(0, func() { Attach(p, cfg, func(AttachResult) { calls++ }) })
	k.Run()
	if calls != 1 {
		t.Fatalf("done called %d times", calls)
	}
}

func TestAttachConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	p := &fakeProber{k: k, rtt: 1}
	for _, cfg := range []AttachConfig{
		{ConfigOps: 0, Timeout: 1, Retry: 1},
		{ConfigOps: 1, Timeout: 0, Retry: 1},
		{ConfigOps: 1, Timeout: 1, Retry: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			Attach(p, cfg, func(AttachResult) {})
		}()
	}
	if err := DefaultAttachConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}
