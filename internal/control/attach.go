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
	// Retry is the fixed pause before re-attempting a transaction the NIC
	// couldn't accept, as in the prototype.
	Retry sim.Duration
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
	return nil
}

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
			k.After(cfg.Retry, step)
		}
	}
	step()
}
