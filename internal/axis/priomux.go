package axis

import "thymesim/internal/sim"

// PriorityMux arbitrates N input FIFOs onto one output with strict
// priority: input 0 always wins over input 1, and so on. Combined with a
// delay-injection or rate-limiting gate it implements the paper's
// "packet scheduling at the network" QoS mechanism: when the bottleneck
// frees a transfer slot, the latency-sensitive class takes it first.
// Strict priority can starve low classes under persistent high-class
// backlog; the experiments quantify exactly that trade.
type PriorityMux struct {
	k         *sim.Kernel
	ins       []*FIFO // index = priority, 0 highest
	out       *FIFO
	cycle     sim.Duration
	gate      Gate
	faulter   Faulter // gate's fault model, nil when it has none
	busyUntil sim.Time
	armed     bool

	transfers uint64
	perClass  []uint64
	dropped   uint64
	corrupted uint64
}

// NewPriorityMux wires a strict-priority multiplexer; gate may be nil.
func NewPriorityMux(k *sim.Kernel, ins []*FIFO, out *FIFO, cycle sim.Duration, gate Gate) *PriorityMux {
	if len(ins) == 0 {
		panic("axis: PriorityMux needs at least one input")
	}
	if gate == nil {
		gate = PassGate{}
	}
	m := &PriorityMux{k: k, ins: ins, out: out, cycle: cycle, gate: gate, perClass: make([]uint64, len(ins))}
	m.faulter, _ = gate.(Faulter)
	for _, in := range ins {
		in.OnData(m.kick)
	}
	out.OnSpace(m.kick)
	return m
}

// Transfers returns the beats moved so far.
func (m *PriorityMux) Transfers() uint64 { return m.transfers }

// ClassTransfers returns the beats moved for a priority class.
func (m *PriorityMux) ClassTransfers(class int) uint64 { return m.perClass[class] }

// Dropped returns the beats discarded by the gate's fault model.
func (m *PriorityMux) Dropped() uint64 { return m.dropped }

// Corrupted returns the beats damaged by the gate's fault model.
func (m *PriorityMux) Corrupted() uint64 { return m.corrupted }

func (m *PriorityMux) anyValid() bool {
	for _, in := range m.ins {
		if in.Len() > 0 {
			return true
		}
	}
	return false
}

func (m *PriorityMux) kick() {
	if m.armed || m.out.Space() == 0 || !m.anyValid() {
		return
	}
	t := m.k.Now()
	if m.busyUntil > t {
		t = m.busyUntil
	}
	t = m.gate.Next(t)
	m.armed = true
	m.k.AtH(t, m, 0)
}

// Handle implements sim.Handler for closure-free arming.
func (m *PriorityMux) Handle(uint64) { m.fire() }

func (m *PriorityMux) fire() {
	m.armed = false
	if m.out.Space() == 0 || !m.anyValid() {
		return
	}
	now := m.k.Now()
	if next := m.gate.Next(now); next > now {
		m.kick()
		return
	}
	for class, in := range m.ins {
		if in.Len() == 0 {
			continue
		}
		b, _ := in.Pop()
		m.gate.Commit(now)
		m.busyUntil = now.Add(m.cycle)
		m.transfers++
		m.perClass[class]++
		if m.faulter != nil {
			switch m.faulter.Fault(now, b) {
			case FaultDrop:
				m.dropped++
				m.kick()
				return
			case FaultCorrupt:
				m.corrupted++
				b.Corrupt = true
			}
		}
		m.out.Push(b)
		break
	}
	m.kick()
}
