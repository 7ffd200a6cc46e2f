// Gilbert–Elliott bursty bit-error model. The iid BitErrorGate spreads
// corruption uniformly, but real marginal links err in bursts: a SerDes
// losing lock, a connector vibrating, an optical module heating up. The
// classic two-state Markov model captures that — a Good state with a low
// (often zero) bit error rate and a Bad state with a high one, with
// geometric sojourn times in each — and is the standard way to make an
// ARQ layer face correlated loss instead of conveniently independent
// errors.
package inject

import (
	"fmt"
	"math"

	"thymesim/internal/axis"
	"thymesim/internal/sim"
)

// GilbertElliottConfig parameterizes the two-state burst-error chain.
type GilbertElliottConfig struct {
	// PGoodBad is the per-beat probability of transitioning Good -> Bad;
	// the mean good sojourn is 1/PGoodBad beats.
	PGoodBad float64
	// PBadGood is the per-beat probability of transitioning Bad -> Good;
	// the mean burst length is 1/PBadGood beats.
	PBadGood float64
	// BERGood and BERBad are the per-bit corruption probabilities in each
	// state (Good is typically 0 or tiny, Bad is large).
	BERGood float64
	BERBad  float64
}

// Validate checks the configuration.
func (c GilbertElliottConfig) Validate() error {
	if c.PGoodBad < 0 || c.PGoodBad > 1 {
		return fmt.Errorf("inject: P(good->bad) %g outside [0,1]", c.PGoodBad)
	}
	if c.PBadGood <= 0 || c.PBadGood > 1 {
		return fmt.Errorf("inject: P(bad->good) %g outside (0,1]", c.PBadGood)
	}
	if c.BERGood < 0 || c.BERGood >= 1 {
		return fmt.Errorf("inject: good-state BER %g outside [0,1)", c.BERGood)
	}
	if c.BERBad < 0 || c.BERBad >= 1 {
		return fmt.Errorf("inject: bad-state BER %g outside [0,1)", c.BERBad)
	}
	return nil
}

// DefaultGilbertElliottConfig is a clean link with rare, vicious bursts:
// one burst roughly every 2000 beats, ~50 beats long, corrupting most
// packets while it lasts.
func DefaultGilbertElliottConfig() GilbertElliottConfig {
	return GilbertElliottConfig{
		PGoodBad: 1.0 / 2000,
		PBadGood: 1.0 / 50,
		BERGood:  0,
		BERBad:   1e-3,
	}
}

// GilbertElliottGate corrupts transfers with a bursty, two-state bit error
// process. Each judged beat first advances the Markov chain, then flips at
// least one bit with probability 1-(1-BER_state)^bits. Force pins the
// chain in the Bad state for scheduled burst-error windows.
type GilbertElliottGate struct {
	inner axis.Gate
	cfg   GilbertElliottConfig
	rng   *sim.Rand

	bad    bool
	forced bool

	judged    uint64
	corrupted uint64
	badBeats  uint64
	bursts    uint64
}

// NewGilbertElliottGate wraps inner (nil = ungated) with the burst-error
// chain, starting in the Good state.
func NewGilbertElliottGate(inner axis.Gate, cfg GilbertElliottConfig, rng *sim.Rand) *GilbertElliottGate {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("inject: nil rng")
	}
	return &GilbertElliottGate{inner: innerOrPass(inner), cfg: cfg, rng: rng}
}

// Config returns the configured chain parameters.
func (g *GilbertElliottGate) Config() GilbertElliottConfig { return g.cfg }

// Corrupted returns how many beats this gate damaged.
func (g *GilbertElliottGate) Corrupted() uint64 { return g.corrupted }

// Judged returns how many beats passed through the fault model.
func (g *GilbertElliottGate) Judged() uint64 { return g.judged }

// BadBeats returns how many judged beats saw the Bad state.
func (g *GilbertElliottGate) BadBeats() uint64 { return g.badBeats }

// Bursts returns how many Good -> Bad transitions occurred (forced
// windows count once on entry).
func (g *GilbertElliottGate) Bursts() uint64 { return g.bursts }

// Bad reports whether the chain currently sits in the Bad state.
func (g *GilbertElliottGate) Bad() bool { return g.bad || g.forced }

// Force pins the chain in the Bad state (scheduled burst-error window) or
// releases it back to its own dynamics. Releasing returns to Good: the
// window is over.
func (g *GilbertElliottGate) Force(bad bool) {
	if bad && !g.Bad() {
		g.bursts++
	}
	g.forced = bad
	if !bad {
		g.bad = false
	}
}

// Next implements axis.Gate.
func (g *GilbertElliottGate) Next(now sim.Time) sim.Time { return g.inner.Next(now) }

// Commit implements axis.Gate.
func (g *GilbertElliottGate) Commit(t sim.Time) { g.inner.Commit(t) }

// Fault implements axis.Faulter: advance the chain one beat, then corrupt
// with the current state's BER. A drop verdict from the inner gate wins —
// a beat that never reaches the far side cannot also be corrupted.
func (g *GilbertElliottGate) Fault(t sim.Time, b axis.Beat) axis.FaultAction {
	g.judged++
	if !g.forced {
		if g.bad {
			if g.rng.Float64() < g.cfg.PBadGood {
				g.bad = false
			}
		} else if g.rng.Float64() < g.cfg.PGoodBad {
			g.bad = true
			g.bursts++
		}
	}
	in := innerFault(g.inner, t, b)
	if in == axis.FaultDrop {
		return in
	}
	ber := g.cfg.BERGood
	if g.Bad() {
		g.badBeats++
		ber = g.cfg.BERBad
	}
	if ber > 0 {
		bits := 8 * float64(b.Bytes)
		if g.rng.Float64() < 1-math.Pow(1-ber, bits) {
			g.corrupted++
			return axis.FaultCorrupt
		}
	}
	return in
}
