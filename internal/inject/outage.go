package inject

import (
	"fmt"
	"sort"

	"thymesim/internal/sim"
)

// OutageGate models the reliability failures the paper's introduction
// names (link repair, transient network faults): during each configured
// window the egress is fully blocked — requests queue at the injector —
// and traffic resumes when the window ends. Whether the system survives
// depends on whether any timeout-guarded operation (the attach handshake,
// Fig. 4) spans an outage.
type OutageGate struct {
	windows []Window
	minGap  sim.Duration
	readyAt sim.Time
	// cursor indexes the first window that could still matter: windows
	// before it have ended relative to every instant Next has seen.
	// Queries are monotone (the injector's time never runs backwards),
	// so scanning restarts there instead of at the head of the list.
	cursor  int
	blocked uint64
}

// Window is one outage interval [Start, Start+Duration).
type Window struct {
	Start    sim.Time
	Duration sim.Duration
}

// End returns the instant the outage lifts.
func (w Window) End() sim.Time { return w.Start.Add(w.Duration) }

// NewOutageGate returns a gate that blocks during the given windows.
// Windows must not overlap; minGap (use the FPGA cycle) lower-bounds
// spacing between transfers outside outages.
func NewOutageGate(windows []Window, minGap sim.Duration) *OutageGate {
	ws := append([]Window(nil), windows...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	for i, w := range ws {
		if w.Duration <= 0 {
			panic(fmt.Sprintf("inject: outage %d has duration %v", i, w.Duration))
		}
		if i > 0 && ws[i-1].End() > w.Start {
			panic(fmt.Sprintf("inject: outages %d and %d overlap", i-1, i))
		}
	}
	return &OutageGate{windows: ws, minGap: minGap}
}

// Blocked returns how many transfer attempts landed inside an outage.
func (g *OutageGate) Blocked() uint64 { return g.blocked }

// Next implements axis.Gate. One call counts at most one blocked attempt,
// even when the release instant crosses several back-to-back windows.
func (g *OutageGate) Next(now sim.Time) sim.Time {
	t := now
	if g.readyAt > t {
		t = g.readyAt
	}
	blockedThisCall := false
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
		blockedThisCall = true
		g.cursor++
	}
	if blockedThisCall {
		g.blocked++
	}
	return t
}

// Commit implements axis.Gate.
func (g *OutageGate) Commit(t sim.Time) {
	g.readyAt = t.Add(g.minGap)
}
