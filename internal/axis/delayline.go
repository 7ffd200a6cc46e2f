package axis

import "thymesim/internal/sim"

// DelayLine moves beats from in to out after a fixed latency, preserving
// order and allowing arbitrary pipelining (every beat is in flight
// independently). It models the fixed traversal latency of a multi-stage
// FPGA pipeline without simulating each stage. Backpressure: beats are
// launched only when output space, net of in-flight beats, is available.
type DelayLine struct {
	k       *sim.Kernel
	in, out *FIFO
	delay   sim.Duration
	moved   uint64
	// free is an intrusive free list of flight contexts; each in-flight
	// beat borrows one and returns it on delivery, so a warmed-up line
	// schedules without allocating. inflight counts the borrowed ones.
	free     *flight
	inflight int
}

// flight carries one in-transit beat through the kernel schedule. It is
// the DelayLine's pooled continuation: the beat payload rides in the
// struct instead of a captured closure variable.
type flight struct {
	d    *DelayLine
	b    Beat
	next *flight
}

// Handle implements sim.Handler: the beat arrives at the output and the
// context returns to the pool.
func (f *flight) Handle(uint64) {
	d := f.d
	d.inflight--
	d.moved++
	b := f.b
	f.b = Beat{} // drop payload refs before pooling
	f.next = d.free
	d.free = f
	d.out.Push(b)
}

// NewDelayLine wires a fixed-latency stage between in and out.
func NewDelayLine(k *sim.Kernel, in, out *FIFO, delay sim.Duration) *DelayLine {
	if delay < 0 {
		panic("axis: negative delay line")
	}
	d := &DelayLine{k: k, in: in, out: out, delay: delay}
	in.OnData(d.kick)
	out.OnSpace(d.kick)
	return d
}

// Moved returns the number of beats delivered so far.
func (d *DelayLine) Moved() uint64 { return d.moved }

// FlightsLive returns the pooled flight contexts borrowed and not yet
// returned: the beats in flight, 0 once drained.
func (d *DelayLine) FlightsLive() int { return d.inflight }

func (d *DelayLine) kick() {
	for d.in.Len() > 0 && d.out.Space()-d.inflight > 0 {
		b, _ := d.in.Pop()
		d.inflight++
		f := d.free
		if f == nil {
			f = &flight{d: d}
		} else {
			d.free = f.next
			f.next = nil
		}
		f.b = b
		d.k.AfterH(d.delay, f, 0)
	}
}
