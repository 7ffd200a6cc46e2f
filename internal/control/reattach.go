// Link supervision and automatic re-attach. The prototype leaves recovery
// to the operator: a flapped link means a dead attach and a manual re-run.
// The Supervisor closes that loop — heartbeat probes detect the failure,
// a backoff-paced re-attach restores the window when the link returns, and
// a link that never returns is declared dead instead of retried forever.

package control

import (
	"fmt"

	"thymesim/internal/sim"
)

// HeartbeatProber extends Prober with a deadline-bounded probe — the
// primitive link supervision needs (*cluster.Testbed satisfies it).
type HeartbeatProber interface {
	Prober
	// Probe sends one liveness transaction; done(false, 0) fires if no
	// healthy response arrives within the deadline.
	Probe(deadline sim.Duration, done func(ok bool, rtt sim.Duration)) bool
}

// LinkState is the supervisor's view of the link.
type LinkState int

// Supervisor states.
const (
	LinkUp          LinkState = iota // heartbeats healthy
	LinkDown                         // misses crossed the threshold
	LinkReattaching                  // re-attach handshake in progress
	LinkDead                         // re-attach budget exhausted
)

var linkStateNames = map[LinkState]string{
	LinkUp:          "up",
	LinkDown:        "down",
	LinkReattaching: "reattaching",
	LinkDead:        "dead",
}

// String implements fmt.Stringer.
func (s LinkState) String() string {
	if n, ok := linkStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// SupervisorConfig parameterizes link supervision.
type SupervisorConfig struct {
	// Heartbeat is the probe interval while the link is up.
	Heartbeat sim.Duration
	// ProbeDeadline bounds each heartbeat's response time; a probe that
	// misses it counts as a failure.
	ProbeDeadline sim.Duration
	// MissThreshold is how many consecutive failed heartbeats declare the
	// link down.
	MissThreshold int
	// Attach parameterizes each re-attach handshake.
	Attach AttachConfig
	// ReattachPause is the wait before the first re-attach attempt;
	// consecutive failures grow it by ReattachMult (>= 1) up to
	// ReattachCap (0 = uncapped), jittered by JitterFrac from Seed.
	ReattachPause sim.Duration
	ReattachMult  float64
	ReattachCap   sim.Duration
	JitterFrac    float64
	Seed          uint64
	// MaxReattach bounds consecutive failed re-attach attempts before the
	// link is declared dead (0 = retry forever).
	MaxReattach int
}

// Validate checks the configuration.
func (c SupervisorConfig) Validate() error {
	if c.Heartbeat <= 0 {
		return fmt.Errorf("control: Heartbeat = %v", c.Heartbeat)
	}
	if c.ProbeDeadline <= 0 {
		return fmt.Errorf("control: ProbeDeadline = %v", c.ProbeDeadline)
	}
	if c.MissThreshold <= 0 {
		return fmt.Errorf("control: MissThreshold = %d", c.MissThreshold)
	}
	if c.ReattachPause <= 0 {
		return fmt.Errorf("control: ReattachPause = %v", c.ReattachPause)
	}
	if c.ReattachMult != 0 && c.ReattachMult < 1 {
		return fmt.Errorf("control: ReattachMult = %g < 1", c.ReattachMult)
	}
	if c.ReattachCap < 0 {
		return fmt.Errorf("control: negative ReattachCap")
	}
	if c.JitterFrac < 0 || c.JitterFrac >= 1 {
		return fmt.Errorf("control: JitterFrac = %g outside [0,1)", c.JitterFrac)
	}
	if c.MaxReattach < 0 {
		return fmt.Errorf("control: MaxReattach = %d", c.MaxReattach)
	}
	return c.Attach.Validate()
}

// DefaultSupervisorConfig returns supervision tuned to the testbed: a
// heartbeat every 50us detects a dead link within ~150us, and re-attach
// retries back off from 100us to 5ms.
func DefaultSupervisorConfig() SupervisorConfig {
	return SupervisorConfig{
		Heartbeat:     50 * sim.Microsecond,
		ProbeDeadline: 30 * sim.Microsecond,
		MissThreshold: 3,
		Attach:        DefaultAttachConfig(),
		ReattachPause: 100 * sim.Microsecond,
		ReattachMult:  2,
		ReattachCap:   5 * sim.Millisecond,
		JitterFrac:    0.1,
		Seed:          1,
		MaxReattach:   8,
	}
}

// SupervisorStats counts supervision events.
type SupervisorStats struct {
	Heartbeats     uint64 // probes sent (or attempted) while up
	Misses         uint64 // heartbeats failed or expired
	Downs          uint64 // up -> down transitions
	Reattaches     uint64 // re-attach handshakes started
	Recoveries     uint64 // down -> up transitions
	RecoverySumPs  uint64 // total down-to-up latency, picoseconds
	RecoveryMaxPs  uint64 // worst down-to-up latency, picoseconds
	FailedAttaches uint64 // re-attach handshakes that timed out
}

// MeanRecovery returns the average down-to-up latency.
func (s SupervisorStats) MeanRecovery() sim.Duration {
	if s.Recoveries == 0 {
		return 0
	}
	return sim.Duration(s.RecoverySumPs / s.Recoveries)
}

// Supervisor watches a link with heartbeat probes and re-attaches after
// failures. Start it once the initial attach has succeeded; Stop it before
// expecting the kernel to drain (it keeps timers armed while running).
type Supervisor struct {
	p   HeartbeatProber
	cfg SupervisorConfig
	rng *sim.Rand

	state   LinkState
	stopped bool
	// gen invalidates in-flight probe/attach callbacks after Stop or a
	// restart. The supervisor's own timers need no such guard: they live
	// on the kernel's timer wheel and Stop cancels them for real.
	gen uint64
	// timer is the armed heartbeat or re-attach pause (the two are
	// mutually exclusive: heartbeats run while up, the pause while down).
	timer   sim.TimerID
	downAt  sim.Time
	retries int // consecutive failed re-attach attempts
	misses  int // consecutive failed heartbeats

	// OnStateChange, when set, observes every transition.
	OnStateChange func(from, to LinkState)

	stats SupervisorStats
}

// NewSupervisor builds a supervisor; call Start to begin heartbeating.
// Invalid configurations panic; harness code that assembles configurations
// at runtime should prefer NewSupervisorChecked.
func NewSupervisor(p HeartbeatProber, cfg SupervisorConfig) *Supervisor {
	s, err := NewSupervisorChecked(p, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSupervisorChecked is NewSupervisor returning configuration errors
// instead of panicking — a zero Heartbeat or MissThreshold would otherwise
// be accepted as "supervision that never detects anything".
func NewSupervisorChecked(p HeartbeatProber, cfg SupervisorConfig) (*Supervisor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Supervisor{p: p, cfg: cfg, rng: sim.NewRand(cfg.Seed), state: LinkUp}, nil
}

// State returns the current link state.
func (s *Supervisor) State() LinkState { return s.state }

// Stats returns the supervision counters.
func (s *Supervisor) Stats() SupervisorStats { return s.stats }

// Start begins heartbeat supervision from the up state.
func (s *Supervisor) Start() {
	s.stopped = false
	s.gen++
	s.scheduleHeartbeat()
}

// Stop halts supervision: armed timers are cancelled on the wheel and
// in-flight probe/attach callbacks become no-ops, so the kernel can drain.
func (s *Supervisor) Stop() {
	s.stopped = true
	s.gen++
	s.p.Kernel().CancelTimer(s.timer)
}

func (s *Supervisor) transition(to LinkState) {
	from := s.state
	if from == to {
		return
	}
	s.state = to
	if s.OnStateChange != nil {
		s.OnStateChange(from, to)
	}
}

// jittered applies the configured jitter spread to d.
func (s *Supervisor) jittered(d float64) sim.Duration {
	if s.cfg.JitterFrac > 0 {
		d *= 1 + s.cfg.JitterFrac*(2*s.rng.Float64()-1)
	}
	if d < 1 {
		d = 1
	}
	return sim.Duration(d)
}

// Timer contexts for the supervisor's Handle dispatch.
const (
	supHeartbeat = iota // the heartbeat interval elapsed
	supReattach         // the re-attach backoff pause elapsed
)

// Handle implements sim.Handler for the supervisor's wheel timers. Stop
// cancels them for real, so a firing always belongs to the live
// supervision epoch; the state checks only guard transitions made by
// callbacks that ran between arm and fire.
func (s *Supervisor) Handle(arg uint64) {
	switch arg {
	case supHeartbeat:
		if s.state != LinkUp {
			return
		}
		s.heartbeat(s.gen)
	case supReattach:
		if s.state == LinkDead {
			return
		}
		s.reattach(s.gen)
	}
}

func (s *Supervisor) scheduleHeartbeat() {
	s.timer = s.p.Kernel().ArmTimer(s.jittered(float64(s.cfg.Heartbeat)), s, supHeartbeat)
}

func (s *Supervisor) heartbeat(gen uint64) {
	s.stats.Heartbeats++
	sent := s.p.Probe(s.cfg.ProbeDeadline, func(ok bool, _ sim.Duration) {
		if s.stopped || s.gen != gen || s.state != LinkUp {
			return
		}
		if ok {
			s.misses = 0
		} else {
			s.miss()
		}
		if s.state == LinkUp {
			s.scheduleHeartbeat()
		}
	})
	if !sent {
		// Egress saturated: indistinguishable from congestion; count a
		// miss and keep probing.
		s.miss()
		if s.state == LinkUp {
			s.scheduleHeartbeat()
		}
	}
}

func (s *Supervisor) miss() {
	s.stats.Misses++
	s.misses++
	if s.misses < s.cfg.MissThreshold {
		return
	}
	s.misses = 0
	s.stats.Downs++
	s.downAt = s.p.Kernel().Now()
	s.transition(LinkDown)
	s.retries = 0
	s.scheduleReattach()
}

// reattachPause returns the backoff before re-attach attempt n (0-based).
func (s *Supervisor) reattachPause(n int) sim.Duration {
	d := float64(s.cfg.ReattachPause)
	if m := s.cfg.ReattachMult; m > 1 {
		for i := 0; i < n; i++ {
			d *= m
			if cap := float64(s.cfg.ReattachCap); cap > 0 && d > cap {
				d = cap
				break
			}
		}
	}
	return s.jittered(d)
}

func (s *Supervisor) scheduleReattach() {
	if s.cfg.MaxReattach > 0 && s.retries >= s.cfg.MaxReattach {
		s.transition(LinkDead)
		return
	}
	s.timer = s.p.Kernel().ArmTimer(s.reattachPause(s.retries), s, supReattach)
}

// reattach runs one re-attach handshake; gen pins the supervision epoch
// for the handshake's asynchronous completion callback.
func (s *Supervisor) reattach(gen uint64) {
	s.transition(LinkReattaching)
	s.stats.Reattaches++
	Attach(s.p, s.cfg.Attach, func(r AttachResult) {
		if s.stopped || s.gen != gen || s.state == LinkDead {
			return
		}
		if !r.OK {
			s.stats.FailedAttaches++
			s.retries++
			s.transition(LinkDown)
			s.scheduleReattach()
			return
		}
		rec := uint64(s.p.Kernel().Now().Sub(s.downAt))
		s.stats.Recoveries++
		s.stats.RecoverySumPs += rec
		if rec > s.stats.RecoveryMaxPs {
			s.stats.RecoveryMaxPs = rec
		}
		s.retries = 0
		s.transition(LinkUp)
		s.scheduleHeartbeat()
	})
}
