// Package netlink models the network between disaggregated-memory NICs.
//
// The paper's prototype replaces the datacenter network with a 100 Gb/s
// point-to-point copper cable (§III-A); Channel models one direction of
// such a link with store-and-forward serialization and propagation delay.
// Link pairs two channels into a full-duplex cable.
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

// Channel moves beats from a TX FIFO to an RX FIFO in one direction:
// serialization time bytes/bandwidth on a shared wire (FIFO order), then
// propagation delay, then delivery. Delivery into a full RX FIFO applies
// backpressure by pausing the wire (credit-based link-layer flow control).
type Channel struct {
	k           *sim.Kernel
	tx, rx      *axis.FIFO
	wire        *sim.Server
	propagation sim.Duration
	bytesPerSec float64
	armed       bool
	// inflight counts the beats taken off the TX FIFO and not yet
	// delivered; each rides a wire context borrowed from free, so it is
	// also the pool's live count.
	inflight int

	delivered uint64
	bytes     uint64
	// free is an intrusive free list of per-beat wire contexts; a warmed-up
	// channel serves and propagates without allocating.
	free *wireFlight
}

// wireFlight carries one beat across the channel's two stages: arg 0 fires
// at serialization end (launch propagation, unarm, admit the next beat),
// arg 1 at propagation end (deliver and return to the pool).
type wireFlight struct {
	c    *Channel
	b    axis.Beat
	next *wireFlight
}

// Handle implements sim.Handler.
func (f *wireFlight) Handle(stage uint64) {
	c := f.c
	if stage == 0 {
		// Order matters for determinism: the propagation event is
		// scheduled before the next beat can reach the wire, exactly as
		// the closure-based code did.
		c.k.AfterH(c.propagation, f, 1)
		c.armed = false
		c.kick()
		return
	}
	c.inflight--
	c.delivered++
	c.bytes += uint64(f.b.Bytes)
	b := f.b
	f.b = axis.Beat{} // drop payload refs before pooling
	f.next = c.free
	c.free = f
	c.rx.Push(b)
}

// NewChannel wires a unidirectional channel between tx and rx.
func NewChannel(k *sim.Kernel, tx, rx *axis.FIFO, bandwidthBps float64, propagation sim.Duration) *Channel {
	if bandwidthBps <= 0 {
		panic("netlink: bandwidth must be positive")
	}
	if propagation < 0 {
		panic("netlink: negative propagation")
	}
	c := &Channel{
		k: k, tx: tx, rx: rx,
		wire:        sim.NewServer(k),
		propagation: propagation,
		bytesPerSec: bandwidthBps,
	}
	tx.OnData(c.kick)
	rx.OnSpace(c.kick)
	return c
}

// Delivered returns the number of beats delivered to the RX FIFO.
func (c *Channel) Delivered() uint64 { return c.delivered }

// FlightsLive returns the pooled wire contexts borrowed and not yet
// returned: the beats on the wire or propagating, 0 once drained.
func (c *Channel) FlightsLive() int { return c.inflight }

// Bytes returns the cumulative wire bytes delivered.
func (c *Channel) Bytes() uint64 { return c.bytes }

// Utilization returns the wire's busy fraction since simulation start.
func (c *Channel) Utilization() float64 { return c.wire.Utilization() }

// SerializationTime returns the wire time for n bytes.
func (c *Channel) SerializationTime(n int) sim.Duration {
	return sim.Duration(float64(n) / c.bytesPerSec * 1e12)
}

func (c *Channel) kick() {
	if c.armed || c.tx.Len() == 0 {
		return
	}
	// Model link-layer credits: put the head on the wire only when the
	// receiver can accept it, counting beats already in the propagation
	// pipe so the receiver cannot be overflowed.
	if c.rx.Space()-c.inflight <= 0 {
		return
	}
	b, _ := c.tx.Pop()
	c.armed = true
	c.inflight++
	ser := c.SerializationTime(int(b.Bytes))
	f := c.free
	if f == nil {
		f = &wireFlight{c: c}
	} else {
		c.free = f.next
		f.next = nil
	}
	f.b = b
	c.wire.ServeH(ser, f, 0)
}

// Link is a full-duplex point-to-point cable: direction A→B and B→A.
type Link struct {
	AtoB *Channel
	BtoA *Channel
}

// NewLink builds a full-duplex link over the four endpoint FIFOs.
func NewLink(k *sim.Kernel, txA, rxB, txB, rxA *axis.FIFO, bandwidthBps float64, propagation sim.Duration) *Link {
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
