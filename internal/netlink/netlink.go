// Package netlink models the network between disaggregated-memory NICs.
//
// The paper's prototype replaces the datacenter network with a 100 Gb/s
// point-to-point copper cable (§III-A); Channel models one direction of
// such a link end to end: the sender's serializer/PHY traversal, store-
// and-forward serialization on the wire, propagation, and the receiver's
// PHY/deserializer traversal. Link pairs two channels into a full-duplex
// cable.
package netlink

import (
	"fmt"

	"thymesim/internal/axis"
	"thymesim/internal/sim"
)

// Default parameters for the prototype's cable.
const (
	// DefaultBandwidthBps is 100 Gb/s in bytes per second.
	DefaultBandwidthBps = 100e9 / 8
	// DefaultPropagation covers the copper cable plus PHY latency.
	DefaultPropagation = 100 * sim.Nanosecond
)

// Side is one end of a Channel: the queue the channel drains (transmit)
// or fills (receive) and the fixed serializer/PHY traversal on that side.
type Side struct {
	Q *axis.FIFO
	// Latency is the side's fixed serializer/PHY traversal; 0 for a
	// switch port.
	Latency sim.Duration
	// Stamp, when set, observes each beat at the instant it crosses this
	// side's boundary, which the channel computes when the beat leaves Q
	// and which may lie in the future: for a transmitter the end of its
	// traversal onto the wire queue, for a receiver the end of
	// propagation. Trace taps hang here.
	Stamp func(b axis.Beat, at sim.Time)
	// Paced marks a transmit queue whose occupancy another component's
	// credit check reads (a switch output port). The channel then takes a
	// beat off it only when the wire is free, one serialization-end event
	// per beat, instead of booking the wire ahead at the beat's arrival.
	// A paced side feeds the wire directly: its Latency must be 0.
	Paced bool
}

// Channel moves beats from a transmit queue to a receive queue in one
// direction. A beat leaving the transmit queue at now starts on the wire
// at max(now+tx.Latency, end of the previous serialization) — the wire is
// a FIFO server — serializes for bytes/bandwidth, propagates, and lands in
// the receive queue rx.Latency later, by one kernel event. Credit-based
// link-layer flow control: a beat leaves the transmit queue only while the
// receive queue has room net of the beats in flight, and the receiver
// freeing space re-kicks the channel.
//
// The in-flight beats form the segment, a FIFO ring: arrivals are
// monotone, so each arrival retires the head, and they wait in the
// channel's own kernel source, one heap entry however many beats are in
// flight. Arrivals are appended in (at, seq) order because:
//   - wireFree never decreases: a beat starts at max(ready, wireFree) and
//     wireFree moves to its serialization end;
//   - propagation + rx.Latency is constant, so booked-ahead arrivals
//     (wireFree + propagation + rx.Latency) never decrease either;
//   - paced serialization ends come one at a time, in order (one is armed
//     at a time, at wireFree), and each books its arrival at its own
//     instant + propagation + rx.Latency, no earlier than the last;
//   - seq only grows.
//
// The source panics on an append out of order. The counters read the
// segment against the clock, so that wire time booked ahead never counts
// early: a beat counts as delivered once its propagation has ended, and
// its serialization counts as busy wire time once it has started (a wire
// server books a whole serialization at its start).
type Channel struct {
	k           *sim.Kernel
	arrivals    sim.Source
	tx, rx      Side
	propagation sim.Duration
	bytesPerSec float64
	// wireFree is the end of the last serialization booked.
	wireFree sim.Time
	// armed marks a paced channel's pending serialization end.
	armed bool

	seg        []flight
	head, live int

	// delivered, bytes and busy count the retired (arrived) beats.
	delivered uint64
	bytes     uint64
	busy      sim.Duration
}

// flight is one beat of the segment: its payload, when it starts on the
// wire and how long it serializes.
type flight struct {
	b     axis.Beat
	start sim.Time
	ser   sim.Duration
}

// Handle implements sim.Handler. Arg 0 is an arrival: the segment's head
// lands in the receive queue. Arg 1 is a paced serialization end: the
// head's propagation and the receiver's traversal are booked as one
// arrival, and the next beat may take the wire.
func (c *Channel) Handle(arg uint64) {
	if arg == 1 {
		// Order matters for determinism: the arrival is scheduled before
		// the next beat can reach the wire.
		c.arrivals.AtH(c.k.Now().Add(c.propagation+c.rx.Latency), c, 0)
		c.armed = false
		c.kick()
		return
	}
	f := &c.seg[c.head]
	b := f.b
	c.delivered++
	c.bytes += uint64(b.Bytes)
	c.busy += f.ser
	f.b = axis.Beat{} // drop payload refs
	if c.head++; c.head == len(c.seg) {
		c.head = 0
	}
	c.live--
	c.rx.Q.Push(b)
}

// NewChannel wires a unidirectional channel from tx to rx.
func NewChannel(k *sim.Kernel, tx, rx Side, bandwidthBps float64, propagation sim.Duration) *Channel {
	if bandwidthBps <= 0 {
		panic("netlink: bandwidth must be positive")
	}
	if propagation < 0 || tx.Latency < 0 || rx.Latency < 0 {
		panic("netlink: negative latency")
	}
	if tx.Paced && tx.Latency != 0 {
		panic("netlink: a paced side feeds the wire directly and has no latency")
	}
	c := &Channel{
		k: k, arrivals: k.NewSource(), tx: tx, rx: rx,
		propagation: propagation,
		bytesPerSec: bandwidthBps,
	}
	tx.Q.OnData(c.kick)
	rx.Q.OnSpace(c.kick)
	return c
}

// Delivered returns the number of beats whose propagation has ended.
func (c *Channel) Delivered() uint64 {
	beats, _, _ := c.settled()
	return c.delivered + beats
}

// Bytes returns the cumulative wire bytes of the beats Delivered counts.
func (c *Channel) Bytes() uint64 {
	_, bytes, _ := c.settled()
	return c.bytes + bytes
}

// Utilization returns the wire's busy fraction since simulation start: the
// serialization time of every beat that has started on the wire, over the
// elapsed time.
func (c *Channel) Utilization() float64 {
	now := c.k.Now()
	if now == 0 {
		return 0
	}
	_, _, busy := c.settled()
	return (c.busy + busy).Seconds() / sim.Time(now).Seconds()
}

// settled sums the segment's beats as of now: those whose propagation has
// ended, their bytes, and the serialization time of those that have
// started. Start and propagation-end instants are monotone along the
// segment, so the walk stops at the first beat not yet on the wire.
func (c *Channel) settled() (beats, bytes uint64, busy sim.Duration) {
	now := c.k.Now()
	for i, j := 0, c.head; i < c.live; i++ {
		f := &c.seg[j]
		if f.start >= now {
			break
		}
		busy += f.ser
		if f.start.Add(f.ser+c.propagation) < now {
			beats++
			bytes += uint64(f.b.Bytes)
		}
		if j++; j == len(c.seg) {
			j = 0
		}
	}
	return beats, bytes, busy
}

// FlightsLive returns the beats in the segment: off the transmit queue and
// not yet in the receive queue, 0 once drained.
func (c *Channel) FlightsLive() int { return c.live }

// SerializationTime returns the wire time for n bytes.
func (c *Channel) SerializationTime(n int) sim.Duration {
	return sim.Duration(float64(n) / c.bytesPerSec * 1e12)
}

// kick moves beats from the transmit queue into the segment while the
// receiver has credit: all of them at once, with the wire booked ahead,
// or on a paced channel one per free wire.
func (c *Channel) kick() {
	if c.armed {
		return
	}
	for c.tx.Q.Len() > 0 && c.rx.Q.Space()-c.live > 0 {
		b, _ := c.tx.Q.Pop()
		now := c.k.Now()
		ready := now.Add(c.tx.Latency)
		start := ready
		if c.wireFree > start {
			start = c.wireFree
		}
		ser := c.SerializationTime(int(b.Bytes))
		c.wireFree = start.Add(ser)
		c.push(flight{b: b, start: start, ser: ser})
		if c.tx.Stamp != nil {
			c.tx.Stamp(b, ready)
		}
		if c.rx.Stamp != nil {
			c.rx.Stamp(b, c.wireFree.Add(c.propagation))
		}
		if c.tx.Paced {
			c.armed = true
			c.k.AtH(c.wireFree, c, 1)
			return
		}
		c.arrivals.AtH(c.wireFree.Add(c.propagation+c.rx.Latency), c, 0)
	}
}

// push appends f to the segment ring, doubling it when full.
func (c *Channel) push(f flight) {
	if c.live == len(c.seg) {
		n := 2 * len(c.seg)
		if n == 0 {
			n = 16
		}
		seg := make([]flight, n)
		m := copy(seg, c.seg[c.head:])
		copy(seg[m:], c.seg[:c.head])
		c.seg, c.head = seg, 0
	}
	i := c.head + c.live
	if i >= len(c.seg) {
		i -= len(c.seg)
	}
	c.seg[i] = f
	c.live++
}

// Link is a full-duplex point-to-point cable: direction A→B and B→A.
type Link struct {
	AtoB *Channel
	BtoA *Channel
}

// NewLink builds a full-duplex link over the four endpoint sides.
func NewLink(k *sim.Kernel, txA, rxB, txB, rxA Side, bandwidthBps float64, propagation sim.Duration) *Link {
	return &Link{
		AtoB: NewChannel(k, txA, rxB, bandwidthBps, propagation),
		BtoA: NewChannel(k, txB, rxA, bandwidthBps, propagation),
	}
}

// String summarizes delivery counts.
func (l *Link) String() string {
	return fmt.Sprintf("link{a->b: %d beats/%d B, b->a: %d beats/%d B}",
		l.AtoB.Delivered(), l.AtoB.Bytes(), l.BtoA.Delivered(), l.BtoA.Bytes())
}
