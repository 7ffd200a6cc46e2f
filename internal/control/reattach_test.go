package control

import (
	"testing"

	"thymesim/internal/sim"
)

// fakeLinkProber answers probes after rtt while healthy; while down,
// probes get no response (the deadline expires them).
type fakeLinkProber struct {
	k    *sim.Kernel
	rtt  sim.Duration
	down bool
}

func (f *fakeLinkProber) SendProbe(done func(sim.Duration)) bool {
	return f.Probe(0, func(ok bool, rtt sim.Duration) {
		if ok {
			done(rtt)
		}
	})
}

func (f *fakeLinkProber) Probe(deadline sim.Duration, done func(bool, sim.Duration)) bool {
	if f.down {
		if deadline > 0 {
			f.k.After(deadline, func() { done(false, 0) })
		}
		return true // accepted, but the response never comes
	}
	rtt := f.rtt
	f.k.After(rtt, func() { done(true, rtt) })
	return true
}

func (f *fakeLinkProber) Kernel() *sim.Kernel { return f.k }

func supConfig() SupervisorConfig {
	return SupervisorConfig{
		Heartbeat:     10 * sim.Microsecond,
		ProbeDeadline: 5 * sim.Microsecond,
		MissThreshold: 2,
		Attach:        AttachConfig{ConfigOps: 8, Timeout: sim.Duration(sim.Millisecond), Retry: sim.Duration(sim.Microsecond)},
		ReattachPause: 20 * sim.Microsecond,
		ReattachMult:  2,
		ReattachCap:   200 * sim.Microsecond,
		MaxReattach:   4,
		Seed:          1,
	}
}

func TestSupervisorStaysUpOnHealthyLink(t *testing.T) {
	k := sim.NewKernel()
	p := &fakeLinkProber{k: k, rtt: sim.Duration(sim.Microsecond)}
	s := NewSupervisor(p, supConfig())
	s.Start()
	k.After(500*sim.Microsecond, s.Stop)
	k.Run()
	if s.State() != LinkUp {
		t.Fatalf("state = %v", s.State())
	}
	st := s.Stats()
	if st.Heartbeats < 10 || st.Misses != 0 || st.Downs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSupervisorDetectsDownAndReattaches(t *testing.T) {
	k := sim.NewKernel()
	p := &fakeLinkProber{k: k, rtt: sim.Duration(sim.Microsecond)}
	s := NewSupervisor(p, supConfig())
	var transitions []LinkState
	s.OnStateChange = func(_, to LinkState) { transitions = append(transitions, to) }
	s.Start()
	k.After(100*sim.Microsecond, func() { p.down = true })
	k.After(300*sim.Microsecond, func() { p.down = false })
	k.After(2*sim.Millisecond, s.Stop)
	k.Run()

	if s.State() != LinkUp {
		t.Fatalf("final state = %v (transitions %v)", s.State(), transitions)
	}
	st := s.Stats()
	if st.Downs != 1 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanRecovery() <= 0 || st.RecoveryMaxPs < st.RecoverySumPs/st.Recoveries {
		t.Fatalf("recovery latency accounting: %+v", st)
	}
	// Saw Down, then Reattaching, eventually Up.
	sawDown, sawRe, sawUp := false, false, false
	for _, tr := range transitions {
		switch tr {
		case LinkDown:
			sawDown = true
		case LinkReattaching:
			sawRe = sawDown
		case LinkUp:
			sawUp = sawRe
		}
	}
	if !sawUp {
		t.Fatalf("transitions = %v", transitions)
	}
}

func TestSupervisorDeclaresDeadAfterBudget(t *testing.T) {
	k := sim.NewKernel()
	p := &fakeLinkProber{k: k, rtt: sim.Duration(sim.Microsecond)}
	cfg := supConfig()
	cfg.Attach.Timeout = 50 * sim.Microsecond // fail fast while down
	s := NewSupervisor(p, cfg)
	s.Start()
	k.After(50*sim.Microsecond, func() { p.down = true }) // and stays down
	k.Run()

	if s.State() != LinkDead {
		t.Fatalf("state = %v, want dead", s.State())
	}
	st := s.Stats()
	if st.FailedAttaches != uint64(cfg.MaxReattach) {
		t.Fatalf("failed attaches = %d, want %d", st.FailedAttaches, cfg.MaxReattach)
	}
	if st.Recoveries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Dead is terminal: the kernel drained, no timers left.
}

func TestSupervisorStopQuiesces(t *testing.T) {
	k := sim.NewKernel()
	p := &fakeLinkProber{k: k, rtt: sim.Duration(sim.Microsecond)}
	s := NewSupervisor(p, supConfig())
	s.Start()
	k.After(30*sim.Microsecond, s.Stop)
	k.Run()
	if now := k.Now(); now > sim.Time(50*sim.Microsecond) {
		t.Fatalf("kernel ran to %v after Stop", now)
	}
}

func TestSupervisorConfigValidation(t *testing.T) {
	base := supConfig()
	muts := []func(*SupervisorConfig){
		func(c *SupervisorConfig) { c.Heartbeat = 0 },
		func(c *SupervisorConfig) { c.ProbeDeadline = 0 },
		func(c *SupervisorConfig) { c.MissThreshold = 0 },
		func(c *SupervisorConfig) { c.ReattachPause = 0 },
		func(c *SupervisorConfig) { c.ReattachMult = 0.5 },
		func(c *SupervisorConfig) { c.JitterFrac = 1 },
		func(c *SupervisorConfig) { c.MaxReattach = -1 },
		func(c *SupervisorConfig) { c.Attach.ConfigOps = 0 },
	}
	for i, mut := range muts {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultSupervisorConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachFixedPauseDefaultUnchanged: under the default config a refused
// config transaction is retried exactly Retry later, every time, so the
// Fig. 4 attach numbers keep the prototype's fixed pause.
func TestAttachFixedPauseDefaultUnchanged(t *testing.T) {
	k := sim.NewKernel()
	const refused = 5
	p := &fakeProber{k: k, rtt: sim.Duration(sim.Microsecond), fail: refused}
	cfg := DefaultAttachConfig()
	var res AttachResult
	k.At(0, func() { Attach(p, cfg, func(r AttachResult) { res = r }) })
	k.Run()
	if !res.OK || res.OpsDone != cfg.ConfigOps {
		t.Fatalf("attach failed: %+v", res)
	}
	for i := 1; i <= refused; i++ {
		if gap := p.sends[i].Sub(p.sends[i-1]); gap != cfg.Retry {
			t.Fatalf("retry %d landed %v after the refusal, want %v", i, gap, cfg.Retry)
		}
	}
}
