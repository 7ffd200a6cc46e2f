// Package control models the disaggregation control plane of §II-A that
// sits beside the datapath: the hot-plug attach handshake
// (libthymesisflow's job in the prototype), the circuit breaker that fails
// fills over to local memory when the remote path turns unhealthy, and the
// supervisor that detects a dead link and re-attaches. Lender placement
// and region carving live in cluster.Pool and its pool.Policy.
package control

import (
	"fmt"

	"thymesim/internal/sim"
)

// Prober abstracts the borrower's ability to exchange control-plane
// transactions with the lender NIC over the (delay-injected) datapath.
// *cluster.Testbed satisfies it.
type Prober interface {
	// SendProbe transmits one config/liveness transaction, calling done
	// with the round-trip time when the response arrives. It reports false
	// if the transaction could not be enqueued.
	SendProbe(done func(rtt sim.Duration)) bool
	// Kernel returns the simulation kernel for timers.
	Kernel() *sim.Kernel
}

// AttachConfig parameterizes the hot-plug handshake that libthymesisflow
// performs when configuring the FPGAs and attaching remote memory.
type AttachConfig struct {
	// ConfigOps is the number of sequential configuration transactions the
	// attach requires (FPGA register setup, window programming, ...).
	ConfigOps int
	// Timeout is the overall detection deadline: if the handshake has not
	// completed, the FPGA is declared "not detected" and the attach fails
	// — the Fig. 4 failure mode at PERIOD=10000.
	Timeout sim.Duration
	// Retry is the pause before re-attempting a transaction the NIC
	// couldn't accept.
	Retry sim.Duration
	// RetryMult grows the pause across consecutive rejections (exponential
	// backoff); 0 or 1 keeps the pause fixed, reproducing the prototype's
	// behaviour. The pause resets to Retry after any accepted transaction.
	RetryMult float64
	// RetryCap bounds the grown pause (0 = uncapped).
	RetryCap sim.Duration
	// RetryJitter spreads each pause uniformly over [1-j, 1+j]; 0 disables
	// jitter. Jitter draws come from RetrySeed for reproducibility.
	RetryJitter float64
	RetrySeed   uint64
}

// DefaultAttachConfig mirrors the prototype's observed behaviour: the
// attach survives PERIOD=1000 (≈4 µs per gated transaction) but times out
// at PERIOD=10000 (≈40 µs per transaction).
func DefaultAttachConfig() AttachConfig {
	return AttachConfig{
		ConfigOps: 256,
		Timeout:   5 * sim.Millisecond,
		Retry:     10 * sim.Microsecond,
	}
}

// Validate checks the configuration.
func (c AttachConfig) Validate() error {
	if c.ConfigOps <= 0 {
		return fmt.Errorf("control: ConfigOps = %d", c.ConfigOps)
	}
	if c.Timeout <= 0 {
		return fmt.Errorf("control: Timeout = %v", c.Timeout)
	}
	if c.Retry <= 0 {
		return fmt.Errorf("control: Retry = %v", c.Retry)
	}
	if c.RetryMult != 0 && c.RetryMult < 1 {
		return fmt.Errorf("control: RetryMult = %g < 1", c.RetryMult)
	}
	if c.RetryCap < 0 {
		return fmt.Errorf("control: negative RetryCap")
	}
	if c.RetryJitter < 0 || c.RetryJitter >= 1 {
		return fmt.Errorf("control: RetryJitter = %g outside [0,1)", c.RetryJitter)
	}
	return nil
}

// retryPacer produces the sequence of backoff pauses an AttachConfig
// describes: fixed at Retry by default, exponential with optional cap and
// jitter when RetryMult > 1.
type retryPacer struct {
	cfg  AttachConfig
	rng  *sim.Rand
	next float64
}

func newRetryPacer(cfg AttachConfig) *retryPacer {
	p := &retryPacer{cfg: cfg, next: float64(cfg.Retry)}
	if cfg.RetryJitter > 0 {
		p.rng = sim.NewRand(cfg.RetrySeed)
	}
	return p
}

// pause returns the next pause and advances the backoff.
func (p *retryPacer) pause() sim.Duration {
	d := p.next
	if m := p.cfg.RetryMult; m > 1 {
		p.next *= m
		if cap := float64(p.cfg.RetryCap); cap > 0 && p.next > cap {
			p.next = cap
		}
	}
	if p.rng != nil {
		d *= 1 + p.cfg.RetryJitter*(2*p.rng.Float64()-1)
	}
	if d < 1 {
		d = 1
	}
	return sim.Duration(d)
}

// reset returns the backoff to its base pause (after a successful send).
func (p *retryPacer) reset() { p.next = float64(p.cfg.Retry) }

// AttachResult reports the outcome of a hot-plug attempt.
type AttachResult struct {
	OK      bool
	Elapsed sim.Duration
	OpsDone int
	// MaxRTT is the slowest observed config transaction.
	MaxRTT sim.Duration
	Reason string
}

// Attach runs the hot-plug handshake: ConfigOps sequential transactions
// through the gated egress, with an overall detection deadline. done is
// called exactly once.
func Attach(p Prober, cfg AttachConfig, done func(AttachResult)) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	k := p.Kernel()
	start := k.Now()
	res := AttachResult{}
	finished := false
	finish := func(ok bool, reason string) {
		if finished {
			return
		}
		finished = true
		res.OK = ok
		res.Reason = reason
		res.Elapsed = k.Now().Sub(start)
		done(res)
	}
	// Detection watchdog.
	k.After(cfg.Timeout, func() {
		finish(false, fmt.Sprintf("FPGA not detected: %d/%d config ops within %v",
			res.OpsDone, cfg.ConfigOps, cfg.Timeout))
	})
	pacer := newRetryPacer(cfg)
	var step func()
	step = func() {
		if finished {
			return
		}
		if res.OpsDone == cfg.ConfigOps {
			finish(true, "attached")
			return
		}
		ok := p.SendProbe(func(rtt sim.Duration) {
			if rtt > res.MaxRTT {
				res.MaxRTT = rtt
			}
			res.OpsDone++
			step()
		})
		if !ok {
			k.After(pacer.pause(), step)
			return
		}
		pacer.reset()
	}
	step()
}
