// Package inject implements the paper's delay-injection framework.
//
// The core artifact is PeriodGate, a faithful transaction-level model of
// the FPGA module the paper inserts between the routing and multiplexer
// blocks of the ThymesisFlow compute-node egress. The hardware keeps VALID
// unchanged and rewrites READY as
//
//	READY_NEW = READY_OLD && (COUNTER % PERIOD == 0)     (Eq. 1)
//
// where COUNTER counts FPGA clock cycles since system start: a transfer may
// complete only on cycles that lie on the PERIOD grid, i.e. at most one
// transfer per PERIOD cycles, aligned to multiples of PERIOD.
//
// The package also provides the paper's stated future-work extension
// (§VII): injecting delays drawn from distributions rather than a fixed
// grid, including bursty Gilbert–Elliott behaviour and trace replay.
package inject

import (
	"fmt"
	"math"

	"thymesim/internal/sim"
)

// DefaultFPGACycle is the AlphaData 9V3 / ThymesisFlow clock period used by
// the paper's delay figures: 250 MHz => 4 ns.
const DefaultFPGACycle = 4 * sim.Nanosecond

// PeriodGate implements Eq. 1 on a simulated AXI4-Stream stage. It permits
// at most one transfer per PERIOD FPGA cycles, at instants aligned to the
// PERIOD grid. PERIOD = 1 passes every cycle through (vanilla behaviour).
type PeriodGate struct {
	period   int64
	cycle    sim.Duration
	slot     sim.Duration // period * cycle
	lastSlot int64        // index of last slot used; -1 initially
}

// NewPeriodGate returns a gate with the given PERIOD in FPGA cycles of the
// given cycle time.
func NewPeriodGate(period int64, cycle sim.Duration) *PeriodGate {
	if period < 1 {
		panic("inject: PERIOD must be >= 1")
	}
	if cycle <= 0 {
		panic("inject: cycle must be positive")
	}
	return &PeriodGate{period: period, cycle: cycle, slot: sim.Duration(period) * cycle, lastSlot: -1}
}

// Period returns the configured PERIOD.
func (g *PeriodGate) Period() int64 { return g.period }

// SlotInterval returns the time between permitted transfer instants.
func (g *PeriodGate) SlotInterval() sim.Duration { return g.slot }

// Next returns the earliest instant >= now on the PERIOD grid whose slot has
// not been used yet.
func (g *PeriodGate) Next(now sim.Time) sim.Time {
	idx := int64(now) / int64(g.slot)
	if sim.Time(idx)*sim.Time(g.slot) < now {
		idx++ // align up
	}
	if idx <= g.lastSlot {
		idx = g.lastSlot + 1
	}
	return sim.Time(idx) * sim.Time(g.slot)
}

// Commit marks the slot containing t as consumed.
func (g *PeriodGate) Commit(t sim.Time) {
	idx := int64(t) / int64(g.slot)
	if sim.Time(idx)*sim.Time(g.slot) != t {
		panic(fmt.Sprintf("inject: commit at %v off the PERIOD grid (slot %v)", t, g.slot))
	}
	if idx <= g.lastSlot {
		panic("inject: slot double-committed")
	}
	g.lastSlot = idx
}

// Dist is a distribution of non-negative delays.
type Dist interface {
	// Draw samples one delay.
	Draw(r *sim.Rand) sim.Duration
	// Mean returns the distribution mean, used for reporting.
	Mean() sim.Duration
	// Name describes the distribution for reports.
	Name() string
}

// Constant is a degenerate distribution.
type Constant struct{ D sim.Duration }

// Draw returns the constant.
func (c Constant) Draw(*sim.Rand) sim.Duration { return c.D }

// Mean returns the constant.
func (c Constant) Mean() sim.Duration { return c.D }

// Name implements Dist.
func (c Constant) Name() string { return fmt.Sprintf("constant(%v)", c.D) }

// Exponential has the given mean.
type Exponential struct{ MeanD sim.Duration }

// Draw samples an exponential variate.
func (e Exponential) Draw(r *sim.Rand) sim.Duration {
	return sim.Duration(float64(e.MeanD) * r.ExpFloat64())
}

// Mean returns the configured mean.
func (e Exponential) Mean() sim.Duration { return e.MeanD }

// Name implements Dist.
func (e Exponential) Name() string { return fmt.Sprintf("exp(mean=%v)", e.MeanD) }

// Pareto is a bounded-minimum heavy-tailed distribution with shape Alpha
// (> 1 for finite mean) and scale Xm (minimum delay).
type Pareto struct {
	Xm    sim.Duration
	Alpha float64
}

// Draw samples a Pareto variate.
func (p Pareto) Draw(r *sim.Rand) sim.Duration {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return sim.Duration(float64(p.Xm) / math.Pow(u, 1/p.Alpha))
}

// Mean returns alpha*xm/(alpha-1) for alpha > 1, else a very large value.
func (p Pareto) Mean() sim.Duration {
	if p.Alpha <= 1 {
		return sim.Duration(math.MaxInt64 / 2)
	}
	return sim.Duration(p.Alpha * float64(p.Xm) / (p.Alpha - 1))
}

// Name implements Dist.
func (p Pareto) Name() string { return fmt.Sprintf("pareto(xm=%v,alpha=%.3g)", p.Xm, p.Alpha) }

// DistGate spaces successive transfers by random draws from a distribution:
// after a transfer commits at t, the next may proceed no earlier than
// t + Draw(). This is the §VII "delays according to a distribution"
// extension.
type DistGate struct {
	dist    Dist
	rng     *sim.Rand
	readyAt sim.Time
	minGap  sim.Duration
	draws   uint64
}

// NewDistGate returns a gate drawing inter-transfer gaps from dist. minGap
// (use the FPGA cycle) lower-bounds the spacing like the physical pipeline
// would.
func NewDistGate(dist Dist, minGap sim.Duration, rng *sim.Rand) *DistGate {
	if dist == nil {
		panic("inject: nil distribution")
	}
	if rng == nil {
		panic("inject: nil rng")
	}
	return &DistGate{dist: dist, rng: rng, minGap: minGap}
}

// Draws returns the number of committed transfers.
func (g *DistGate) Draws() uint64 { return g.draws }

// Next implements axis.Gate.
func (g *DistGate) Next(now sim.Time) sim.Time {
	if g.readyAt > now {
		return g.readyAt
	}
	return now
}

// Commit implements axis.Gate.
func (g *DistGate) Commit(t sim.Time) {
	gap := g.dist.Draw(g.rng)
	if gap < g.minGap {
		gap = g.minGap
	}
	g.readyAt = t.Add(gap)
	g.draws++
}

// GilbertElliott alternates between a "good" state with low injected delay
// and a "bad" (congested/repairing) state with high delay. Transitions are
// evaluated per transfer with the given probabilities, modelling bursty
// network pathologies at short timescales.
type GilbertElliott struct {
	good, bad   Dist
	pGoodToBad  float64
	pBadToGood  float64
	rng         *sim.Rand
	inBad       bool
	readyAt     sim.Time
	minGap      sim.Duration
	badPeriods  uint64
	transitions uint64
}

// NewGilbertElliott returns a bursty gate starting in the good state.
func NewGilbertElliott(good, bad Dist, pGoodToBad, pBadToGood float64, minGap sim.Duration, rng *sim.Rand) *GilbertElliott {
	if pGoodToBad < 0 || pGoodToBad > 1 || pBadToGood < 0 || pBadToGood > 1 {
		panic("inject: transition probabilities must be in [0,1]")
	}
	return &GilbertElliott{good: good, bad: bad, pGoodToBad: pGoodToBad, pBadToGood: pBadToGood, minGap: minGap, rng: rng}
}

// InBad reports whether the gate is currently in the bad state.
func (g *GilbertElliott) InBad() bool { return g.inBad }

// Transitions returns the number of state flips so far.
func (g *GilbertElliott) Transitions() uint64 { return g.transitions }

// Next implements axis.Gate.
func (g *GilbertElliott) Next(now sim.Time) sim.Time {
	if g.readyAt > now {
		return g.readyAt
	}
	return now
}

// Commit implements axis.Gate.
func (g *GilbertElliott) Commit(t sim.Time) {
	if g.inBad {
		if g.rng.Float64() < g.pBadToGood {
			g.inBad = false
			g.transitions++
		}
	} else {
		if g.rng.Float64() < g.pGoodToBad {
			g.inBad = true
			g.transitions++
			g.badPeriods++
		}
	}
	d := g.good
	if g.inBad {
		d = g.bad
	}
	gap := d.Draw(g.rng)
	if gap < g.minGap {
		gap = g.minGap
	}
	g.readyAt = t.Add(gap)
}

// TraceGate replays a recorded sequence of inter-transfer gaps, cycling
// when exhausted. It lets experiments reproduce latency traces captured on
// production fabrics.
type TraceGate struct {
	gaps    []sim.Duration
	idx     int
	readyAt sim.Time
	minGap  sim.Duration
}

// NewTraceGate returns a gate replaying gaps (must be non-empty).
func NewTraceGate(gaps []sim.Duration, minGap sim.Duration) *TraceGate {
	if len(gaps) == 0 {
		panic("inject: empty trace")
	}
	for _, g := range gaps {
		if g < 0 {
			panic("inject: negative gap in trace")
		}
	}
	return &TraceGate{gaps: append([]sim.Duration(nil), gaps...), minGap: minGap}
}

// Next implements axis.Gate.
func (g *TraceGate) Next(now sim.Time) sim.Time {
	if g.readyAt > now {
		return g.readyAt
	}
	return now
}

// Commit implements axis.Gate.
func (g *TraceGate) Commit(t sim.Time) {
	gap := g.gaps[g.idx]
	g.idx = (g.idx + 1) % len(g.gaps)
	if gap < g.minGap {
		gap = g.minGap
	}
	g.readyAt = t.Add(gap)
}
