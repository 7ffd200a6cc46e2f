// Package axis models AXI4-Stream interconnect at transaction granularity.
//
// The ThymesisFlow FPGA design wires its internal blocks (routing,
// multiplexing, serialization) with AXI4-Stream channels, whose two-way
// VALID/READY handshake is the exact mechanism the paper's delay injector
// subverts (Eq. 1: READY_NEW = READY_OLD && (COUNTER % PERIOD == 0)).
//
// Rather than simulating every clock edge, this package models the
// handshake event-wise: a FIFO is VALID while non-empty and READY while it
// has space; Pumps move beats between FIFOs subject to a per-transfer cycle
// time and an optional Gate that restricts the instants at which a transfer
// may proceed. A Gate aligned to a PERIOD-cycle grid reproduces the
// injector's behaviour exactly at the transfer level while remaining fast
// enough to push hundreds of millions of simulated bytes.
package axis

import (
	"fmt"

	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// Beat is one AXI4-Stream transfer: a data word (here: up to a full
// transaction's flits collapsed into one beat of Bytes bytes on the wire)
// plus routing metadata. It is 32 bytes with one typed pointer and no
// interface, so every FIFO ring, delay-line flight and switch hop copies
// half a cache line per beat and nothing is boxed.
type Beat struct {
	Born sim.Time      // when the beat entered the pipeline (for latency probes)
	Pkt  *ocapi.Packet // carried transaction; nil for payload-free beats
	// Bytes is the wire size, used for link serialization downstream.
	Bytes int32
	Dest  int32 // TDEST: routing key
	Flow  int32 // source identifier for fairness accounting
	Last  bool  // TLAST: end of packet
	// Corrupt marks a beat damaged in flight (bit errors on the wire or in
	// the FPGA datapath). The payload still occupies its full wire size;
	// receivers detect the damage via CRC and must not trust the contents.
	Corrupt bool
}

// FIFO is a bounded queue of beats. VALID corresponds to Len() > 0 and
// READY to Space() > 0. onData fires after each Push and onSpace after each
// Pop; consumers/producers attach idempotent kick functions at wiring time.
//
// The backing ring is sized lazily: capacity is the handshake bound
// (Space/Cap report against it), but the buffer only grows — by doubling,
// up to capacity — when occupancy demands. Deep queues that back-pressure
// long before they fill (the common case in wide fan-in topologies) then
// cost no memory for their unreached headroom, which keeps testbed
// construction off the large-allocation path.
type FIFO struct {
	name     string
	buf      []Beat
	capacity int
	head     int
	count    int
	onData   []func()
	onSpace  []func()
	onPush   func(Beat)

	pushed uint64
	popped uint64
	bytes  uint64
}

// fifoInitialCap bounds the first ring allocation; rings smaller than this
// are allocated at full capacity up front.
const fifoInitialCap = 64

// NewFIFO returns a FIFO with the given capacity (entries, not bytes).
func NewFIFO(name string, capacity int) *FIFO {
	if capacity <= 0 {
		panic("axis: FIFO capacity must be positive")
	}
	return &FIFO{name: name, capacity: capacity}
}

// Name returns the FIFO's wiring label.
func (f *FIFO) Name() string { return f.name }

// Cap returns the capacity in beats.
func (f *FIFO) Cap() int { return f.capacity }

// Len returns the number of queued beats (VALID when > 0).
func (f *FIFO) Len() int { return f.count }

// Space returns the free entries (READY when > 0).
func (f *FIFO) Space() int { return f.capacity - f.count }

// Pushed returns the cumulative number of beats accepted.
func (f *FIFO) Pushed() uint64 { return f.pushed }

// Popped returns the cumulative number of beats removed.
func (f *FIFO) Popped() uint64 { return f.popped }

// Bytes returns the cumulative wire bytes accepted.
func (f *FIFO) Bytes() uint64 { return f.bytes }

// OnData registers fn to run after every Push. Registration order is
// preserved.
func (f *FIFO) OnData(fn func()) { f.onData = append(f.onData, fn) }

// OnSpace registers fn to run after every Pop.
func (f *FIFO) OnSpace(fn func()) { f.onSpace = append(f.onSpace, fn) }

// OnPush registers the per-beat push observer: unlike OnData it receives
// the accepted beat, which observability taps need to attribute queue
// residency to a transaction. A single observer keeps the untraced fast
// path to one nil check; wire a fan-out closure for more.
func (f *FIFO) OnPush(fn func(Beat)) {
	if f.onPush != nil {
		panic(fmt.Sprintf("axis: second push observer on FIFO %q", f.name))
	}
	f.onPush = fn
}

// TryPush appends b and reports success; it fails when the FIFO is full.
func (f *FIFO) TryPush(b Beat) bool {
	if f.count == f.capacity {
		return false
	}
	if f.count == len(f.buf) {
		f.grow()
	}
	i := f.head + f.count
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	// Field by field, like Pop and Peek read it back: a whole-struct store
	// reloads the spilled beat in 16-byte halves over 8-byte stores, a
	// store-forwarding stall on every hop, and a mixed width on either
	// side of the ring only moves that stall to the other side.
	d := &f.buf[i]
	d.Born, d.Pkt, d.Bytes, d.Dest, d.Flow, d.Last, d.Corrupt =
		b.Born, b.Pkt, b.Bytes, b.Dest, b.Flow, b.Last, b.Corrupt
	f.count++
	f.pushed++
	f.bytes += uint64(b.Bytes)
	if f.onPush != nil {
		f.onPush(b)
	}
	for _, fn := range f.onData {
		fn()
	}
	return true
}

// grow doubles the ring (unwrapping it into the new buffer) up to the
// capacity bound. Called only when the ring is full but capacity remains.
func (f *FIFO) grow() {
	n := len(f.buf) * 2
	if n < fifoInitialCap {
		n = fifoInitialCap
	}
	if n > f.capacity {
		n = f.capacity
	}
	nb := make([]Beat, n)
	m := copy(nb, f.buf[f.head:])
	copy(nb[m:], f.buf[:f.head])
	f.buf, f.head = nb, 0
}

// Push appends b and panics on overflow; use it where the producer has
// already checked Space (protocol bugs should fail loudly).
func (f *FIFO) Push(b Beat) {
	if !f.TryPush(b) {
		panic(fmt.Sprintf("axis: push to full FIFO %q", f.name))
	}
}

// Peek returns the head beat without removing it; ok is false when empty.
func (f *FIFO) Peek() (Beat, bool) {
	if f.count == 0 {
		return Beat{}, false
	}
	s := &f.buf[f.head]
	return Beat{Born: s.Born, Pkt: s.Pkt, Bytes: s.Bytes, Dest: s.Dest, Flow: s.Flow, Last: s.Last, Corrupt: s.Corrupt}, true
}

// Pop removes and returns the head beat; ok is false when empty.
func (f *FIFO) Pop() (Beat, bool) {
	if f.count == 0 {
		return Beat{}, false
	}
	// The fields are read into locals, each at the width TryPush stored
	// it, and the beat is assembled only at the return: a Beat held
	// across the callbacks below would be copied whole, in 16-byte
	// halves, over its field-wise stores.
	s := &f.buf[f.head]
	born, pkt, bytes, dest, flow, last, corrupt := s.Born, s.Pkt, s.Bytes, s.Dest, s.Flow, s.Last, s.Corrupt
	s.Pkt = nil // release the packet for GC
	if f.head++; f.head == len(f.buf) {
		f.head = 0
	}
	f.count--
	f.popped++
	for _, fn := range f.onSpace {
		fn()
	}
	return Beat{Born: born, Pkt: pkt, Bytes: bytes, Dest: dest, Flow: flow, Last: last, Corrupt: corrupt}, true
}

// Gate restricts the instants at which a Pump may perform a transfer. Next
// must be monotone, pure (no state change), and idempotent —
// Next(Next(t)) == Next(t) — or pumps will re-arm forever chasing a
// receding release instant; Commit records that a transfer happened at t.
type Gate interface {
	// Next returns the earliest instant >= now at which one transfer may
	// proceed.
	Next(now sim.Time) sim.Time
	// Commit informs the gate that a transfer occurred at t.
	Commit(t sim.Time)
}

// PassGate is the no-op gate: always ready.
type PassGate struct{}

// Next returns now.
func (PassGate) Next(now sim.Time) sim.Time { return now }

// Commit does nothing.
func (PassGate) Commit(sim.Time) {}

// FaultAction is a faulty link's verdict on one admitted transfer.
type FaultAction int

// Fault verdicts, in increasing severity. When several fault models stack,
// the most severe verdict wins.
const (
	// FaultNone passes the beat through untouched.
	FaultNone FaultAction = iota
	// FaultCorrupt forwards the beat with Corrupt set (CRC failure at the
	// receiver).
	FaultCorrupt
	// FaultDrop silently discards the beat; it still consumed its transfer
	// slot and link time up to the fault point.
	FaultDrop
)

// Faulter is an optional Gate extension for link-fault injection. After the
// timing handshake admits a transfer (Next returned now and the beat is
// about to move), the pump asks the gate what the faulty link does to it.
// Fault is called exactly once per transfer, immediately after Commit, so
// implementations may consume randomness.
type Faulter interface {
	Fault(t sim.Time, b Beat) FaultAction
}
