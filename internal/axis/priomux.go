package axis

import "thymesim/internal/sim"

// PriorityMux is the egress arbiter behind the delay injector. It takes
// requests from N class FIFOs with strict priority (class 0 always wins
// over class 1, and so on) through a Gate, and alternates round-robin
// with an optional ungated bypass FIFO, moving one beat per Cycle onto
// one output. It models the ThymesisFlow delay-injection module and the
// egress multiplexer behind it as one stage: a request leaves the moment
// the injector releases it, because the multiplexer hand-off in between
// is a same-cycle transfer nobody observes.
//
// The injector paces only requests: a request is eligible when some class
// has backlog, the injector's own cycle has elapsed since its last
// release and the gate's Next is now. A bypass beat is eligible whenever
// the bypass FIFO has one. When both are eligible they take turns,
// starting with the bypass. Combined with a delay-injection or
// rate-limiting gate, the strict priority among classes implements the
// paper's "packet scheduling at the network" QoS mechanism: when the
// bottleneck frees a transfer slot, the latency-sensitive class takes it
// first. Strict priority can starve low classes under persistent
// high-class backlog; the experiments quantify exactly that trade.
type PriorityMux struct {
	k       *sim.Kernel
	classes []*FIFO // index = priority, 0 highest
	pass    *FIFO   // ungated bypass; nil when there is none
	out     *FIFO
	cycle   sim.Duration
	gate    Gate
	faulter Faulter // gate's fault model, nil when it has none
	// busyUntil paces the output, injUntil the injector: a request the
	// gate's fault model drops uses an injector slot but no output slot.
	busyUntil sim.Time
	injUntil  sim.Time
	reqTurn   bool // the requests have the round-robin turn over the bypass
	armed     bool
	armedAt   sim.Time
	gen       uint64 // identifies the live armed event

	transfers uint64
	perClass  []uint64
	dropped   uint64
	corrupted uint64
}

// NewPriorityMux wires the arbiter; pass and gate may be nil.
func NewPriorityMux(k *sim.Kernel, classes []*FIFO, pass, out *FIFO, cycle sim.Duration, gate Gate) *PriorityMux {
	if len(classes) == 0 {
		panic("axis: PriorityMux needs at least one class")
	}
	if gate == nil {
		gate = PassGate{}
	}
	m := &PriorityMux{k: k, classes: classes, pass: pass, out: out, cycle: cycle, gate: gate, perClass: make([]uint64, len(classes))}
	m.faulter, _ = gate.(Faulter)
	for _, in := range classes {
		in.OnData(m.kick)
	}
	if pass != nil {
		pass.OnData(m.kick)
	}
	out.OnSpace(m.kick)
	return m
}

// Transfers returns the requests released by the gate so far, dropped
// ones included.
func (m *PriorityMux) Transfers() uint64 { return m.transfers }

// ClassTransfers returns the requests released for a priority class.
func (m *PriorityMux) ClassTransfers(class int) uint64 { return m.perClass[class] }

// Dropped returns the requests discarded by the gate's fault model.
func (m *PriorityMux) Dropped() uint64 { return m.dropped }

// Corrupted returns the requests damaged by the gate's fault model.
func (m *PriorityMux) Corrupted() uint64 { return m.corrupted }

func (m *PriorityMux) backlog() bool {
	for _, in := range m.classes {
		if in.Len() > 0 {
			return true
		}
	}
	return false
}

// kick arms the arbiter for the earliest instant a beat may leave. A
// bypass beat arriving while the arbiter waits on the gate re-arms it
// earlier; the superseded event then finds a stale generation and does
// nothing.
func (m *PriorityMux) kick() {
	if m.out.Space() == 0 {
		return
	}
	t := max(m.k.Now(), m.busyUntil)
	if m.pass == nil || m.pass.Len() == 0 {
		if m.armed || !m.backlog() {
			return
		}
		t = m.gate.Next(max(t, m.injUntil))
	} else if m.armed && m.armedAt <= t {
		return
	}
	m.armed, m.armedAt = true, t
	m.gen++
	m.k.AtH(t, m, m.gen)
}

// Handle implements sim.Handler for closure-free arming.
func (m *PriorityMux) Handle(gen uint64) {
	if gen == m.gen {
		m.fire()
	}
}

func (m *PriorityMux) fire() {
	m.armed = false
	if m.out.Space() == 0 {
		return
	}
	now := m.k.Now()
	req := now >= m.injUntil && m.backlog() && m.gate.Next(now) == now
	pass := m.pass != nil && m.pass.Len() > 0
	switch {
	case req && (m.reqTurn || !pass):
		m.release(now)
	case pass:
		b, _ := m.pass.Pop()
		m.reqTurn = true
		m.busyUntil = now.Add(m.cycle)
		m.out.Push(b)
	}
	// Re-arm: for the next beat, or for the instant the gate moved on to
	// (another stage sharing it committed a transfer in this slot).
	m.kick()
}

// release passes the highest-priority request through the gate and its
// fault model onto the output.
func (m *PriorityMux) release(now sim.Time) {
	for class, in := range m.classes {
		if in.Len() == 0 {
			continue
		}
		b, _ := in.Pop()
		m.gate.Commit(now)
		m.injUntil = now.Add(m.cycle)
		m.transfers++
		m.perClass[class]++
		if m.faulter != nil {
			switch m.faulter.Fault(now, b) {
			case FaultDrop:
				m.dropped++
				return
			case FaultCorrupt:
				m.corrupted++
				b.Corrupt = true
			}
		}
		m.reqTurn = false
		m.busyUntil = now.Add(m.cycle)
		m.out.Push(b)
		return
	}
}
