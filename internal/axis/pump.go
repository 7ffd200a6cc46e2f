package axis

import "thymesim/internal/sim"

// Pump moves beats from one FIFO to another, one beat per Cycle at most.
// It models a full-rate pipeline stage of the FPGA datapath: the stage
// asserts READY toward its input whenever its output has space and the
// stage is not mid-transfer.
type Pump struct {
	k         *sim.Kernel
	in, out   *FIFO
	cycle     sim.Duration
	busyUntil sim.Time
	armed     bool

	transfers uint64
}

// NewPump wires a pump between in and out. cycle is the minimum interval
// between transfers (use the FPGA clock period for full-rate stages). The
// pump registers itself for data/space notifications.
func NewPump(k *sim.Kernel, in, out *FIFO, cycle sim.Duration) *Pump {
	if cycle < 0 {
		panic("axis: negative pump cycle")
	}
	p := &Pump{k: k, in: in, out: out, cycle: cycle}
	in.OnData(p.kick)
	out.OnSpace(p.kick)
	return p
}

// Transfers returns the number of beats moved so far.
func (p *Pump) Transfers() uint64 { return p.transfers }

// kick arms the pump if a transfer could proceed. It is idempotent.
func (p *Pump) kick() {
	if p.armed || p.in.Len() == 0 || p.out.Space() == 0 {
		return
	}
	p.armed = true
	p.k.AtH(max(p.k.Now(), p.busyUntil), p, 0)
}

// Handle implements sim.Handler so arming the pump does not allocate a
// method-value closure per transfer.
func (p *Pump) Handle(uint64) { p.fire() }

// fire performs one transfer if the handshake still holds, then re-arms.
func (p *Pump) fire() {
	p.armed = false
	if p.in.Len() == 0 || p.out.Space() == 0 {
		return // conditions changed while armed; kicks will rearm
	}
	b, _ := p.in.Pop()
	p.busyUntil = p.k.Now().Add(p.cycle)
	p.transfers++
	p.out.Push(b)
	p.kick()
}

// Mux is a routing merge: it arbitrates N input FIFOs round-robin, one
// beat per Cycle, and pushes each beat straight into the output its Dest
// selects. It models the ThymesisFlow egress front end, where the command
// and response queues merge and the routing block splits the stream into
// the delay injector's request classes and the response bypass, as one
// stage: the hand-off between the two blocks is a same-cycle transfer
// nobody observes.
//
// An input whose head beat's output is full is head-of-line blocked; the
// others keep their round-robin turns, and the output's OnSpace re-kicks
// the mux. A beat whose Dest has no output panics: routes are fixed at
// wiring time, so an unroutable beat is a protocol bug.
type Mux struct {
	k   *sim.Kernel
	ins []*FIFO
	// outs is indexed by Beat.Dest; a nil entry is a class with no route.
	outs      []*FIFO
	cycle     sim.Duration
	rr        int // last input served
	busyUntil sim.Time
	armed     bool
}

// NewMux wires a round-robin routing merge from ins onto outs, indexed by
// Beat.Dest (nil entries are unroutable).
func NewMux(k *sim.Kernel, ins, outs []*FIFO, cycle sim.Duration) *Mux {
	if len(ins) == 0 {
		panic("axis: Mux needs at least one input")
	}
	m := &Mux{k: k, ins: ins, outs: outs, cycle: cycle}
	for _, in := range ins {
		in.OnData(m.kick)
	}
	for _, out := range outs {
		if out != nil {
			out.OnSpace(m.kick)
		}
	}
	return m
}

// route returns the output for in's head beat, which must exist.
func (m *Mux) route(in *FIFO) *FIFO {
	d := in.buf[in.head].Dest
	if d < 0 || int(d) >= len(m.outs) || m.outs[d] == nil {
		panic("axis: unroutable beat")
	}
	return m.outs[d]
}

// ready reports whether in has a head beat whose output has space.
func (m *Mux) ready(in *FIFO) bool {
	return in.Len() > 0 && m.route(in).Space() > 0
}

func (m *Mux) kick() {
	if m.armed {
		return
	}
	for _, in := range m.ins {
		if m.ready(in) {
			m.armed = true
			m.k.AtH(max(m.k.Now(), m.busyUntil), m, 0)
			return
		}
	}
}

// Handle implements sim.Handler for closure-free arming.
func (m *Mux) Handle(uint64) { m.fire() }

func (m *Mux) fire() {
	m.armed = false
	// Round-robin: start after the last-served input.
	n := len(m.ins)
	idx := m.rr
	for i := 0; i < n; i++ {
		if idx++; idx == n {
			idx = 0
		}
		in := m.ins[idx]
		if !m.ready(in) {
			continue
		}
		out := m.route(in)
		b, _ := in.Pop()
		m.rr = idx
		m.busyUntil = m.k.Now().Add(m.cycle)
		out.Push(b)
		break
	}
	m.kick()
}
