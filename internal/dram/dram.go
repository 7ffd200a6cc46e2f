// Package dram models a node's local memory subsystem: multiple interleaved
// channels, each with a fixed access latency and a data bus whose bandwidth
// is shared by everything using the channel. It is the substrate for both
// sides of the paper's contention experiments: the lender's memory serves
// remote (NIC) traffic and any co-located local applications (MCLN,
// Fig. 7), and the memory-bus-vs-network bandwidth ratio is the mechanism
// behind the paper's third key finding.
package dram

import (
	"fmt"

	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// Config describes a memory subsystem.
type Config struct {
	// Channels is the number of interleaved memory channels.
	Channels int
	// AccessLatency is the fixed row/column access time per request.
	AccessLatency sim.Duration
	// BandwidthBps is the aggregate data-bus bandwidth in bytes/second,
	// divided evenly across channels.
	BandwidthBps float64
	// QueueDepth bounds outstanding requests per channel; further requests
	// wait (memory controller queue).
	QueueDepth int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 0 {
		return fmt.Errorf("dram: channels = %d", c.Channels)
	}
	if c.AccessLatency < 0 {
		return fmt.Errorf("dram: negative access latency")
	}
	if c.BandwidthBps <= 0 {
		return fmt.Errorf("dram: bandwidth = %v", c.BandwidthBps)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("dram: queue depth = %d", c.QueueDepth)
	}
	return nil
}

// AC922Config approximates one IBM AC922 node: 8 DDR4 channels, ~140 GB/s
// aggregate, ~90 ns device access.
func AC922Config() Config {
	return Config{
		Channels:      8,
		AccessLatency: 90 * sim.Nanosecond,
		BandwidthBps:  140e9,
		QueueDepth:    32,
	}
}

// PoolConfig approximates a CPU-less memory pool device (§V discussion):
// a single controller with modest bandwidth, so that contention shifts from
// the network to the pool itself.
func PoolConfig(bandwidthBps float64) Config {
	return Config{
		Channels:      2,
		AccessLatency: 120 * sim.Nanosecond,
		BandwidthBps:  bandwidthBps,
		QueueDepth:    32,
	}
}

// DRAM is the memory subsystem instance.
type DRAM struct {
	k        *sim.Kernel
	cfg      Config
	channels []*channel
	// slowdown inflates device access and bus burst times (brownout
	// injection); 1 is nominal service.
	slowdown float64

	reads  uint64
	writes uint64
	bytes  uint64
	// free is an intrusive free list of staged access contexts; a
	// warmed-up DRAM serves requests without allocating. live counts the
	// contexts borrowed from it and not yet returned.
	free *accessCtx
	live int
}

// accessCtx carries one in-flight request through the channel's three
// stages — slot grant (arg 0), device latency (arg 1), bus burst (arg 2)
// — as a pooled continuation instead of nested closures.
type accessCtx struct {
	d     *DRAM
	ch    *channel
	bytes int
	write bool
	tr    *obs.Tracer
	sp    obs.SpanID
	h     sim.Handler
	arg   uint64
	next  *accessCtx
}

// Handle implements sim.Handler.
func (c *accessCtx) Handle(stage uint64) {
	d := c.d
	switch stage {
	case 0: // memory-controller slot granted
		c.tr.Enter(c.sp, obs.StageDRAMAccess)
		d.k.AfterH(d.accessTime(), c, 1)
	case 1: // device access done; occupy the data bus
		c.ch.bus.ServeH(d.burstTime(c.bytes), c, 2)
	default: // burst complete
		if c.write {
			d.writes++
		} else {
			d.reads++
		}
		d.bytes += uint64(c.bytes)
		ch, h, arg := c.ch, c.h, c.arg
		c.tr, c.h = nil, nil
		c.next = d.free
		d.free = c
		d.live--
		ch.slots.Release()
		if h != nil {
			h.Handle(arg)
		}
	}
}

type channel struct {
	bus   *sim.Server
	slots *sim.CreditPool
}

// New builds a memory subsystem.
func New(k *sim.Kernel, cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &DRAM{k: k, cfg: cfg, slowdown: 1}
	for i := 0; i < cfg.Channels; i++ {
		d.channels = append(d.channels, &channel{
			bus:   sim.NewServer(k),
			slots: sim.NewCreditPool(k, cfg.QueueDepth),
		})
	}
	return d
}

// Config returns the active configuration.
func (d *DRAM) Config() Config { return d.cfg }

// SetSlowdown sets the service-time inflation factor (brownout injection):
// device access latency and bus burst time both scale by it. factor must
// be >= 1; 1 restores nominal service. It applies to accesses whose
// affected stage begins after the call — requests already past that stage
// keep their old timing, like a real controller finishing in-flight work.
func (d *DRAM) SetSlowdown(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("dram: slowdown %g < 1", factor))
	}
	d.slowdown = factor
}

// Slowdown returns the active service-time inflation factor.
func (d *DRAM) Slowdown() float64 { return d.slowdown }

// Reads returns the number of completed read requests.
func (d *DRAM) Reads() uint64 { return d.reads }

// Writes returns the number of completed write requests.
func (d *DRAM) Writes() uint64 { return d.writes }

// Bytes returns the cumulative bytes transferred.
func (d *DRAM) Bytes() uint64 { return d.bytes }

// AccessesLive returns the pooled access contexts borrowed and not yet
// returned: the requests in flight, 0 once the kernel drains.
func (d *DRAM) AccessesLive() int { return d.live }

// channelFor interleaves cache lines across channels.
func (d *DRAM) channelFor(addr uint64) *channel {
	line := addr / ocapi.CacheLineSize
	return d.channels[line%uint64(len(d.channels))]
}

// burstTime is the data-bus occupancy of one request on one channel,
// including any active brownout inflation.
func (d *DRAM) burstTime(bytes int) sim.Duration {
	perChan := d.cfg.BandwidthBps / float64(d.cfg.Channels)
	return sim.Duration(float64(bytes) / perChan * 1e12 * d.slowdown)
}

// accessTime is the device access latency under the active slowdown.
func (d *DRAM) accessTime() sim.Duration {
	if d.slowdown == 1 {
		return d.cfg.AccessLatency
	}
	return sim.Duration(float64(d.cfg.AccessLatency) * d.slowdown)
}

// AccessSpanH performs a memory request of the given size at addr and
// calls h.Handle(arg) when the data has transferred; a nil h means no
// completion call. Concurrent requests to different channels proceed in
// parallel; requests to one channel share its bus. The memory-controller
// queue wait and the device access + bus burst are attributed to sp as
// separate stages (tr may be nil and sp zero: untraced). The request's
// whole channel traversal rides a pooled context, so steady-state
// accesses allocate nothing.
func (d *DRAM) AccessSpanH(addr uint64, bytes int, write bool, tr *obs.Tracer, sp obs.SpanID, h sim.Handler, arg uint64) {
	if bytes <= 0 {
		panic("dram: non-positive access size")
	}
	ch := d.channelFor(addr)
	tr.Enter(sp, obs.StageDRAMQueue)
	c := d.free
	if c == nil {
		c = &accessCtx{d: d}
	} else {
		d.free = c.next
		c.next = nil
	}
	d.live++
	c.ch, c.bytes, c.write, c.tr, c.sp, c.h, c.arg = ch, bytes, write, tr, sp, h, arg
	ch.slots.AcquireH(c, 0)
}

// Utilization returns the mean bus utilization across channels.
func (d *DRAM) Utilization() float64 {
	var sum float64
	for _, ch := range d.channels {
		sum += ch.bus.Utilization()
	}
	return sum / float64(len(d.channels))
}

// DeliveredBps returns achieved bandwidth since simulation start.
func (d *DRAM) DeliveredBps() float64 {
	now := d.k.Now()
	if now == 0 {
		return 0
	}
	return float64(d.bytes) / now.Seconds()
}
