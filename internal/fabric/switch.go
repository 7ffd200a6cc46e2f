// Package fabric models the switched datacenter network that beyond-rack
// memory disaggregation requires (§II-B): an output-queued switch with
// per-port links, so that multiple borrower-lender pairs share paths and
// congestion manifests as increased, variable remote-memory latency — the
// failure mode the paper's delay injector emulates on the point-to-point
// prototype.
package fabric

import (
	"fmt"
	"math/bits"

	"thymesim/internal/axis"
	"thymesim/internal/metricsplane"
	"thymesim/internal/netlink"
	"thymesim/internal/sim"
)

// SwitchConfig parameterizes the switch.
type SwitchConfig struct {
	// Ports is the number of switch ports.
	Ports int
	// LinkBandwidthBps and LinkPropagation describe each port's cable.
	LinkBandwidthBps float64
	LinkPropagation  sim.Duration
	// SwitchLatency is the fixed forwarding latency (lookup + crossbar).
	SwitchLatency sim.Duration
	// OutputQueue bounds each output port's queue in beats; when full,
	// upstream backpressure applies (PFC-style lossless fabric).
	OutputQueue int
	// InputQueue bounds each input port's queue in beats; zero means
	// OutputQueue. Pools deepen inputs past the worst-case outstanding-tag
	// population so the cable never backpressures (see cluster.NewPool),
	// while output queues keep modeling egress contention.
	InputQueue int
}

// DefaultSwitchConfig returns a 100 Gb/s, shallow-buffer ToR-like switch.
func DefaultSwitchConfig(ports int) SwitchConfig {
	return SwitchConfig{
		Ports:            ports,
		LinkBandwidthBps: netlink.DefaultBandwidthBps,
		LinkPropagation:  netlink.DefaultPropagation,
		SwitchLatency:    300 * sim.Nanosecond,
		OutputQueue:      256,
	}
}

// Validate checks the configuration.
func (c SwitchConfig) Validate() error {
	if c.Ports < 2 {
		return fmt.Errorf("fabric: ports = %d", c.Ports)
	}
	if c.LinkBandwidthBps <= 0 {
		return fmt.Errorf("fabric: bandwidth = %v", c.LinkBandwidthBps)
	}
	if c.SwitchLatency < 0 || c.LinkPropagation < 0 {
		return fmt.Errorf("fabric: negative latency")
	}
	if c.OutputQueue <= 0 {
		return fmt.Errorf("fabric: output queue = %d", c.OutputQueue)
	}
	if c.InputQueue < 0 {
		return fmt.Errorf("fabric: input queue = %d", c.InputQueue)
	}
	return nil
}

// Port is one switch port's endpoint-facing FIFO pair: the attached device
// writes to In (toward the switch) and reads from Out.
type Port struct {
	In  *axis.FIFO
	Out *axis.FIFO
}

// Switch is an output-queued crossbar. Beats are routed by the node id in
// their packet's Dst: attach each node's NIC to the port matching
// its id (port i serves node i).
type Switch struct {
	k     *sim.Kernel
	cfg   SwitchConfig
	ports []Port

	forwarded uint64
	dropped   uint64
	// occupancy peaks per output for congestion diagnostics; outInflight
	// counts beats in the forwarding pipeline per output so concurrent
	// input ports cannot jointly overflow an output queue.
	peakOcc     []int
	outInflight []int
	// kicks holds each input's forwarding engine; bit in of waiting[out]
	// (a bitset of 64-input words) marks an input head-of-line blocked on
	// that output, so freed credit wakes exactly the blocked engines (in
	// input order) instead of every input subscribing to every output —
	// O(P) callbacks, not O(P²).
	kicks    []func()
	waiting  [][]uint64
	attached []bool

	// mx holds per-output-port metric bundles; mxDropped the switch-wide
	// drop counter. Both nil when the metrics plane is disabled.
	mx        []*metricsplane.SwitchPortMetrics
	mxDropped *metricsplane.Counter

	// free is an intrusive free list of hop contexts; each beat in the
	// forwarding pipeline borrows one, so a warmed switch forwards
	// without allocating.
	free *hop
}

// hop carries one beat through the switch latency to its output queue:
// the switch's pooled continuation, with the beat and its destination in
// the struct instead of a captured closure.
type hop struct {
	s    *Switch
	b    axis.Beat
	dst  int
	next *hop
}

// Handle implements sim.Handler: the beat lands at its output and the
// context returns to the pool.
func (h *hop) Handle(uint64) {
	s, b, dst := h.s, h.b, h.dst
	h.b = axis.Beat{} // drop payload refs before pooling
	h.next = s.free
	s.free = h
	out := s.ports[dst].Out
	s.outInflight[dst]--
	s.forwarded++
	out.Push(b)
	if out.Len() > s.peakOcc[dst] {
		s.peakOcc[dst] = out.Len()
	}
	if s.mx != nil {
		s.mx[dst].Forwarded(out.Len(), s.peakOcc[dst])
	}
}

// NewSwitch builds the switch and its port FIFOs; devices are attached by
// connecting their NIC TxQ/RxQ to a port via netlink channels (see
// AttachNIC).
func NewSwitch(k *sim.Kernel, cfg SwitchConfig) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Switch{
		k: k, cfg: cfg,
		peakOcc:     make([]int, cfg.Ports),
		outInflight: make([]int, cfg.Ports),
		kicks:       make([]func(), cfg.Ports),
		waiting:     make([][]uint64, cfg.Ports),
		attached:    make([]bool, cfg.Ports),
	}
	inQ := cfg.InputQueue
	if inQ == 0 {
		inQ = cfg.OutputQueue
	}
	outs := make([]*axis.FIFO, cfg.Ports)
	for i := 0; i < cfg.Ports; i++ {
		in := axis.NewFIFO(fmt.Sprintf("sw-in%d", i), inQ)
		out := axis.NewFIFO(fmt.Sprintf("sw-out%d", i), cfg.OutputQueue)
		s.ports = append(s.ports, Port{In: in, Out: out})
		outs[i] = out
		s.waiting[i] = make([]uint64, (cfg.Ports+63)/64)
	}
	// One forwarding engine per input port: parse destination, apply
	// switch latency, enqueue at the output (blocking when full).
	for i := 0; i < cfg.Ports; i++ {
		s.forwardLoop(i, s.ports[i].In, outs)
	}
	// One waker per output: when credit frees, resume only the inputs
	// blocked on this output, in input-index order (the same order the
	// broadcast subscription fired them in, so scheduling is unchanged).
	// A kick can block inputs again, itself included, so after each kick
	// the walk re-reads the live word and goes on past the kicked bit: an
	// input at a higher index that blocked meanwhile is woken in this
	// walk, one at or below it waits for the next credit.
	for o := 0; o < cfg.Ports; o++ {
		blocked := s.waiting[o]
		outs[o].OnSpace(func() {
			for w := range blocked {
				for m := blocked[w]; m != 0; {
					b := uint(bits.TrailingZeros64(m))
					blocked[w] &^= 1 << b
					s.kicks[w<<6|int(b)]()
					m = blocked[w] &^ (2<<b - 1)
				}
			}
		})
	}
	return s
}

// forwardLoop moves beats from one input to their output queues. The
// lookup/crossbar latency is fully pipelined: a beat leaves the input as
// soon as its output has credit (counting in-flight beats), and lands at
// the output SwitchLatency later.
func (s *Switch) forwardLoop(port int, in *axis.FIFO, outs []*axis.FIFO) {
	inflight := s.outInflight
	var kick func()
	kick = func() {
		for in.Len() > 0 {
			head, _ := in.Peek()
			dst := s.dstOf(head)
			if dst < 0 || dst >= len(outs) {
				in.Pop()
				s.dropped++
				s.mxDropped.Inc()
				continue
			}
			out := outs[dst]
			if out.Space()-inflight[dst] <= 0 {
				s.waiting[dst][port>>6] |= 1 << (port & 63)
				return // head-of-line blocked; out's waker rekicks
			}
			b, _ := in.Pop()
			inflight[dst]++
			h := s.free
			if h == nil {
				h = &hop{s: s}
			} else {
				s.free = h.next
				h.next = nil
			}
			h.b, h.dst = b, dst
			s.k.AfterH(s.cfg.SwitchLatency, h, 0)
		}
	}
	s.kicks[port] = kick
	in.OnData(kick)
}

// dstOf extracts the destination port from a beat's packet; a beat with
// no packet is unroutable (-1).
func (s *Switch) dstOf(b axis.Beat) int {
	if b.Pkt == nil {
		return -1
	}
	return int(b.Pkt.Dst)
}

// Forwarded returns the number of beats switched.
func (s *Switch) Forwarded() uint64 { return s.forwarded }

// Ports returns the number of switch ports.
func (s *Switch) Ports() int { return s.cfg.Ports }

// SetMetrics attaches per-output-port forward/queue-depth instruments
// and the switch-wide drop counter (observe-only; empty slice or nil
// disables).
func (s *Switch) SetMetrics(ports []*metricsplane.SwitchPortMetrics, dropped *metricsplane.Counter) {
	if len(ports) != 0 && len(ports) != s.cfg.Ports {
		panic("fabric: SetMetrics port bundle count mismatch")
	}
	s.mx = ports
	s.mxDropped = dropped
}

// Dropped returns the number of unroutable beats discarded.
func (s *Switch) Dropped() uint64 { return s.dropped }

// PeakOccupancy returns the deepest queue observed at the given output.
func (s *Switch) PeakOccupancy(port int) int { return s.peakOcc[port] }

// NICPorts is the FIFO surface a NIC exposes (satisfied by *tfnic.NIC via
// its exported TxQ/RxQ fields wrapped by the caller).
type NICPorts struct {
	TxQ *axis.FIFO
	RxQ *axis.FIFO
}

// AttachNIC cables a NIC to switch port i with a full-duplex link. Each
// port takes exactly one NIC: double-attaching would silently interleave
// two devices on one queue pair.
func (s *Switch) AttachNIC(i int, nic NICPorts) *netlink.Link {
	if i < 0 || i >= len(s.ports) {
		panic(fmt.Sprintf("fabric: port %d out of range", i))
	}
	if s.attached[i] {
		panic(fmt.Sprintf("fabric: port %d already has a NIC", i))
	}
	s.attached[i] = true
	p := s.ports[i]
	return netlink.NewLink(s.k,
		nic.TxQ, p.In, // NIC -> switch
		p.Out, nic.RxQ, // switch -> NIC
		s.cfg.LinkBandwidthBps, s.cfg.LinkPropagation)
}
