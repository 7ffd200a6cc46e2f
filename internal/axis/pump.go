package axis

import (
	"fmt"

	"thymesim/internal/sim"
)

// Pump moves beats from one FIFO to another, one beat per Cycle at most,
// optionally gated. It models a pipeline stage of the FPGA datapath: the
// stage asserts READY toward its input whenever its output has space, the
// gate permits, and the stage is not mid-transfer.
type Pump struct {
	k         *sim.Kernel
	in, out   *FIFO
	cycle     sim.Duration
	gate      Gate
	faulter   Faulter // gate's fault model, nil when it has none
	busyUntil sim.Time
	armed     bool

	transfers uint64
	dropped   uint64
	corrupted uint64
	// onForward, if set, observes each beat as it moves (monitor taps).
	onForward func(Beat)
}

// NewPump wires a pump between in and out. cycle is the minimum interval
// between transfers (use the FPGA clock period for full-rate stages); gate
// may be nil for an ungated stage. The pump registers itself for data/space
// notifications.
func NewPump(k *sim.Kernel, in, out *FIFO, cycle sim.Duration, gate Gate) *Pump {
	if cycle < 0 {
		panic("axis: negative pump cycle")
	}
	if gate == nil {
		gate = PassGate{}
	}
	p := &Pump{k: k, in: in, out: out, cycle: cycle, gate: gate}
	p.faulter, _ = gate.(Faulter)
	in.OnData(p.kick)
	out.OnSpace(p.kick)
	return p
}

// Transfers returns the number of beats moved so far.
func (p *Pump) Transfers() uint64 { return p.transfers }

// Dropped returns the number of beats discarded by the gate's fault model.
func (p *Pump) Dropped() uint64 { return p.dropped }

// Corrupted returns the number of beats damaged by the gate's fault model.
func (p *Pump) Corrupted() uint64 { return p.corrupted }

// OnForward registers an observer invoked for every transferred beat.
func (p *Pump) OnForward(fn func(Beat)) { p.onForward = fn }

// kick arms the pump if a transfer could proceed. It is idempotent.
func (p *Pump) kick() {
	if p.armed || p.in.Len() == 0 || p.out.Space() == 0 {
		return
	}
	now := p.k.Now()
	t := now
	if p.busyUntil > t {
		t = p.busyUntil
	}
	t = p.gate.Next(t)
	p.armed = true
	p.k.AtH(t, p, 0)
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
	now := p.k.Now()
	// The gate may have moved on (another pump sharing it committed a
	// transfer in our slot); if so, re-arm for the new instant.
	if next := p.gate.Next(now); next > now {
		p.kick()
		return
	}
	b, _ := p.in.Pop()
	p.gate.Commit(now)
	p.busyUntil = now.Add(p.cycle)
	p.transfers++
	if p.faulter != nil {
		switch p.faulter.Fault(now, b) {
		case FaultDrop:
			p.dropped++
			p.kick()
			return
		case FaultCorrupt:
			p.corrupted++
			b.Corrupt = true
		}
	}
	if p.onForward != nil {
		p.onForward(b)
	}
	p.out.Push(b)
	p.kick()
}

// Mux arbitrates N input FIFOs onto one output FIFO with round-robin
// fairness, one beat per Cycle. It models the ThymesisFlow egress
// multiplexer downstream of the delay-injection point.
type Mux struct {
	k         *sim.Kernel
	ins       []*FIFO
	out       *FIFO
	cycle     sim.Duration
	gate      Gate
	rr        int
	busyUntil sim.Time
	armed     bool
	transfers uint64
	// perFlow counts transfers by Beat.Flow, grown on first sight of a
	// flow so the count per beat is one index.
	perFlow []uint64
}

// NewMux wires a round-robin multiplexer. gate may be nil.
func NewMux(k *sim.Kernel, ins []*FIFO, out *FIFO, cycle sim.Duration, gate Gate) *Mux {
	if len(ins) == 0 {
		panic("axis: Mux needs at least one input")
	}
	if gate == nil {
		gate = PassGate{}
	}
	m := &Mux{k: k, ins: ins, out: out, cycle: cycle, gate: gate}
	for _, in := range ins {
		in.OnData(m.kick)
	}
	out.OnSpace(m.kick)
	return m
}

// Transfers returns the number of beats moved so far.
func (m *Mux) Transfers() uint64 { return m.transfers }

// FlowTransfers returns beats moved for a given Beat.Flow value.
func (m *Mux) FlowTransfers(flow int) uint64 {
	if flow < 0 || flow >= len(m.perFlow) {
		return 0
	}
	return m.perFlow[flow]
}

// countFlow adds one transfer to flow's tally.
func (m *Mux) countFlow(flow int32) {
	if int(flow) >= len(m.perFlow) {
		m.perFlow = append(m.perFlow, make([]uint64, int(flow)+1-len(m.perFlow))...)
	}
	m.perFlow[flow]++
}

func (m *Mux) anyValid() bool {
	for _, in := range m.ins {
		if in.Len() > 0 {
			return true
		}
	}
	return false
}

func (m *Mux) kick() {
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
func (m *Mux) Handle(uint64) { m.fire() }

func (m *Mux) fire() {
	m.armed = false
	if m.out.Space() == 0 || !m.anyValid() {
		return
	}
	now := m.k.Now()
	if next := m.gate.Next(now); next > now {
		m.kick()
		return
	}
	// Round-robin: start after the last-served input.
	n := len(m.ins)
	idx := m.rr
	for i := 0; i < n; i++ {
		if idx++; idx == n {
			idx = 0
		}
		if m.ins[idx].Len() > 0 {
			b, _ := m.ins[idx].Pop()
			m.rr = idx
			m.gate.Commit(now)
			m.busyUntil = now.Add(m.cycle)
			m.transfers++
			m.countFlow(b.Flow)
			m.out.Push(b)
			break
		}
	}
	m.kick()
}

// Router demultiplexes one input FIFO onto N outputs keyed by Beat.Dest,
// one beat per Cycle. It models the ThymesisFlow routing block upstream of
// the delay-injection point.
type Router struct {
	k  *sim.Kernel
	in *FIFO
	// outs is indexed by Beat.Dest; a nil entry is a class with no route.
	outs      []*FIFO
	cycle     sim.Duration
	busyUntil sim.Time
	armed     bool
	transfers uint64
	dropped   uint64
	dropNoWay bool
}

// NewRouter wires a router. If dropUnroutable is true, beats with a Dest
// not present in outs are discarded (counted); otherwise they panic. Dest
// keys must be non-negative: they index the router's output table.
func NewRouter(k *sim.Kernel, in *FIFO, outs map[int]*FIFO, cycle sim.Duration, dropUnroutable bool) *Router {
	n := 0
	for d := range outs {
		if d < 0 {
			panic(fmt.Sprintf("axis: negative router destination %d", d))
		}
		n = max(n, d+1)
	}
	r := &Router{k: k, in: in, outs: make([]*FIFO, n), cycle: cycle, dropNoWay: dropUnroutable}
	for d, out := range outs {
		r.outs[d] = out
	}
	in.OnData(r.kick)
	for _, out := range r.outs {
		if out != nil {
			out.OnSpace(r.kick)
		}
	}
	return r
}

// route returns the output for Dest d, or nil when d has no route.
func (r *Router) route(d int32) *FIFO {
	if d < 0 || int(d) >= len(r.outs) {
		return nil
	}
	return r.outs[d]
}

// Transfers returns the number of beats routed so far.
func (r *Router) Transfers() uint64 { return r.transfers }

// Dropped returns the number of unroutable beats discarded.
func (r *Router) Dropped() uint64 { return r.dropped }

func (r *Router) kick() {
	if r.armed || r.in.Len() == 0 {
		return
	}
	head, _ := r.in.Peek()
	out := r.route(head.Dest)
	if out != nil && out.Space() == 0 {
		return // head-of-line blocked; out's OnSpace will kick us
	}
	t := r.k.Now()
	if r.busyUntil > t {
		t = r.busyUntil
	}
	r.armed = true
	r.k.AtH(t, r, 0)
}

// Handle implements sim.Handler for closure-free arming.
func (r *Router) Handle(uint64) { r.fire() }

func (r *Router) fire() {
	r.armed = false
	if r.in.Len() == 0 {
		return
	}
	head, _ := r.in.Peek()
	out := r.route(head.Dest)
	if out == nil {
		if !r.dropNoWay {
			panic("axis: unroutable beat")
		}
		r.in.Pop()
		r.dropped++
		r.kick()
		return
	}
	if out.Space() == 0 {
		return
	}
	b, _ := r.in.Pop()
	r.busyUntil = r.k.Now().Add(r.cycle)
	r.transfers++
	out.Push(b)
	r.kick()
}

// Probe measures the latency of beats between two pipeline points using
// Beat.Born timestamps, and throughput at its observation point.
type Probe struct {
	k       *sim.Kernel
	beats   uint64
	bytes   uint64
	firstAt sim.Time
	lastAt  sim.Time
	ageSum  sim.Duration
}

// NewProbe returns a probe bound to kernel k.
func NewProbe(k *sim.Kernel) *Probe { return &Probe{k: k} }

// Observe records the passage of b at the current instant.
func (p *Probe) Observe(b Beat) {
	now := p.k.Now()
	if p.beats == 0 {
		p.firstAt = now
	}
	p.lastAt = now
	p.beats++
	p.bytes += uint64(b.Bytes)
	p.ageSum += now.Sub(b.Born)
}

// Beats returns the number of observations.
func (p *Probe) Beats() uint64 { return p.beats }

// Bytes returns the cumulative observed wire bytes.
func (p *Probe) Bytes() uint64 { return p.bytes }

// MeanAge returns the mean Born-to-observation latency.
func (p *Probe) MeanAge() sim.Duration {
	if p.beats == 0 {
		return 0
	}
	return p.ageSum / sim.Duration(p.beats)
}

// ThroughputBps returns observed bytes/second between first and last
// observation (0 with fewer than 2 beats).
func (p *Probe) ThroughputBps() float64 {
	if p.beats < 2 || p.lastAt == p.firstAt {
		return 0
	}
	return float64(p.bytes) / p.lastAt.Sub(p.firstAt).Seconds()
}
