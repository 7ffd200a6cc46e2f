// Link-fault injection gates. The paper's introduction motivates delay
// injection with real-world reliability events — transient network faults,
// link repair, contention collapse — but its prototype only models delay.
// The gates in this file model the misbehaviour itself: bit corruption
// (BitErrorGate), silent loss (DropGate), and link flapping (FlapGate).
// Each wraps an inner timing gate, so fault models compose freely with the
// Eq. (1) PERIOD grid or any distribution gate, and every random decision
// draws from an explicitly seeded sim.Rand for reproducible chaos runs.
package inject

import (
	"fmt"
	"math"

	"thymesim/internal/axis"
	"thymesim/internal/sim"
)

// innerOrPass returns g, or the no-op gate when g is nil.
func innerOrPass(g axis.Gate) axis.Gate {
	if g == nil {
		return axis.PassGate{}
	}
	return g
}

// innerFault delegates to the inner gate's fault model, letting fault gates
// stack (e.g. corruption over drop over the PERIOD grid).
func innerFault(g axis.Gate, t sim.Time, b axis.Beat) axis.FaultAction {
	if f, ok := g.(axis.Faulter); ok {
		return f.Fault(t, b)
	}
	return axis.FaultNone
}

// BitErrorGate corrupts transfers with a configurable bit error rate: each
// admitted beat flips at least one bit with probability 1-(1-BER)^bits,
// modelling a marginal link or SerDes. Corrupted beats keep their wire
// size; the receiver's CRC catches them (ocapi marks the packet Corrupt)
// and the lender rejects them with OpNack instead of silently answering.
type BitErrorGate struct {
	inner axis.Gate
	ber   float64
	rng   *sim.Rand

	judged    uint64
	corrupted uint64
}

// NewBitErrorGate wraps inner (nil = ungated) with per-beat corruption at
// the given bit error rate.
func NewBitErrorGate(inner axis.Gate, ber float64, rng *sim.Rand) *BitErrorGate {
	if ber < 0 || ber >= 1 {
		panic(fmt.Sprintf("inject: BER %g outside [0,1)", ber))
	}
	if rng == nil {
		panic("inject: nil rng")
	}
	return &BitErrorGate{inner: innerOrPass(inner), ber: ber, rng: rng}
}

// BER returns the configured bit error rate.
func (g *BitErrorGate) BER() float64 { return g.ber }

// Corrupted returns how many beats this gate damaged.
func (g *BitErrorGate) Corrupted() uint64 { return g.corrupted }

// Judged returns how many beats passed through the fault model.
func (g *BitErrorGate) Judged() uint64 { return g.judged }

// Next implements axis.Gate.
func (g *BitErrorGate) Next(now sim.Time) sim.Time { return g.inner.Next(now) }

// Commit implements axis.Gate.
func (g *BitErrorGate) Commit(t sim.Time) { g.inner.Commit(t) }

// Fault implements axis.Faulter: the beat is corrupted with probability
// 1-(1-BER)^(8*Bytes). A more severe verdict from the inner gate wins.
func (g *BitErrorGate) Fault(t sim.Time, b axis.Beat) axis.FaultAction {
	g.judged++
	in := innerFault(g.inner, t, b)
	if in == axis.FaultDrop {
		return in
	}
	bits := 8 * float64(b.Bytes)
	pCorrupt := 1 - math.Pow(1-g.ber, bits)
	if g.rng.Float64() < pCorrupt {
		g.corrupted++
		return axis.FaultCorrupt
	}
	return in
}

// DropGate silently discards transfers with a fixed per-beat probability,
// modelling packet loss the link layer does not retransmit. A dropped
// request neither reaches the lender nor produces a response: recovery is
// the ARQ layer's job (tfnic.ARQ), and without it the transaction hangs
// until a timeout-guarded operation (the attach handshake) gives up.
type DropGate struct {
	inner axis.Gate
	p     float64
	rng   *sim.Rand

	judged  uint64
	dropped uint64
}

// NewDropGate wraps inner (nil = ungated) with per-beat loss probability p.
func NewDropGate(inner axis.Gate, p float64, rng *sim.Rand) *DropGate {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("inject: drop probability %g outside [0,1)", p))
	}
	if rng == nil {
		panic("inject: nil rng")
	}
	return &DropGate{inner: innerOrPass(inner), p: p, rng: rng}
}

// DropProb returns the configured loss probability.
func (g *DropGate) DropProb() float64 { return g.p }

// Dropped returns how many beats this gate discarded.
func (g *DropGate) Dropped() uint64 { return g.dropped }

// Judged returns how many beats passed through the fault model.
func (g *DropGate) Judged() uint64 { return g.judged }

// Next implements axis.Gate.
func (g *DropGate) Next(now sim.Time) sim.Time { return g.inner.Next(now) }

// Commit implements axis.Gate.
func (g *DropGate) Commit(t sim.Time) { g.inner.Commit(t) }

// Fault implements axis.Faulter.
func (g *DropGate) Fault(t sim.Time, b axis.Beat) axis.FaultAction {
	g.judged++
	if g.rng.Float64() < g.p {
		g.dropped++
		return axis.FaultDrop
	}
	return innerFault(g.inner, t, b)
}

// FlapGate generalizes OutageGate to an ongoing up/down renewal process:
// the link alternates between an up phase (durations drawn from Up) and a
// down phase (durations drawn from Down) during which the egress is fully
// blocked, like a cable being reseated or a switch port flapping. Windows
// are generated lazily and deterministically from the gate's own rng, so
// Next stays idempotent as axis.Gate requires.
type FlapGate struct {
	inner    axis.Gate
	up, down Dist
	rng      *sim.Rand

	// horizon is the start of the next (not yet generated) up phase; the
	// generated window list covers [0, horizon).
	windows []Window
	horizon sim.Time
	cursor  int
	blocked uint64
}

// NewFlapGate wraps inner (nil = ungated) with a flap process whose up and
// down phase durations are drawn from the given distributions. The link
// starts up; the first down phase begins after one draw from up.
func NewFlapGate(inner axis.Gate, up, down Dist, rng *sim.Rand) *FlapGate {
	if up == nil || down == nil {
		panic("inject: nil flap distribution")
	}
	if rng == nil {
		panic("inject: nil rng")
	}
	return &FlapGate{inner: innerOrPass(inner), up: up, down: down, rng: rng}
}

// Blocked returns how many transfer attempts landed in a down phase.
func (g *FlapGate) Blocked() uint64 { return g.blocked }

// Flaps returns how many down phases have been generated so far. Phases
// are generated lazily, so this lower-bounds the number the full run will
// experience.
func (g *FlapGate) Flaps() int { return len(g.windows) }

// extendTo generates flap windows until the process covers t.
func (g *FlapGate) extendTo(t sim.Time) {
	for g.horizon <= t {
		up := g.up.Draw(g.rng)
		if up < 1 {
			up = 1 // phases must advance time or generation livelocks
		}
		down := g.down.Draw(g.rng)
		if down < 1 {
			down = 1
		}
		start := g.horizon.Add(up)
		g.windows = append(g.windows, Window{Start: start, Duration: down})
		g.horizon = start.Add(down)
	}
}

// DownAt reports whether the link is in a down phase at t.
func (g *FlapGate) DownAt(t sim.Time) bool {
	g.extendTo(t)
	for i := g.cursor; i < len(g.windows); i++ {
		w := g.windows[i]
		if t < w.Start {
			return false
		}
		if t < w.End() {
			return true
		}
	}
	return false
}

// Next implements axis.Gate: the inner gate's release instant, pushed past
// any down phase it lands in. The loop runs to a fixpoint — the inner
// gate's realignment after an outage may land inside a later down phase —
// so the result is idempotent as the Gate contract requires.
func (g *FlapGate) Next(now sim.Time) sim.Time {
	t := g.inner.Next(now)
	blockedThisCall := false
	for {
		g.extendTo(t)
		moved := false
		for g.cursor < len(g.windows) {
			w := g.windows[g.cursor]
			if w.End() <= t {
				g.cursor++
				continue
			}
			if t < w.Start {
				break
			}
			t = w.End()
			moved = true
			g.extendTo(t)
			g.cursor++
		}
		if !moved {
			break
		}
		blockedThisCall = true
		t = g.inner.Next(t)
	}
	if blockedThisCall {
		g.blocked++
	}
	return t
}

// Commit implements axis.Gate.
func (g *FlapGate) Commit(t sim.Time) { g.inner.Commit(t) }

// Fault implements axis.Faulter by delegating to the inner gate, so flap
// gates stack transparently over corruption and loss models.
func (g *FlapGate) Fault(t sim.Time, b axis.Beat) axis.FaultAction {
	return innerFault(g.inner, t, b)
}
