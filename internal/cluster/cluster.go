// Package cluster composes the simulated testbed: nodes with CPU-side
// cache hierarchies, DRAM, disaggregated-memory NICs, and the
// point-to-point link between them — the two-AC922 ThymesisFlow setup of
// the paper's §III-A, with the delay injector configurable at the borrower
// egress.
package cluster

import (
	"fmt"
	"math"

	"thymesim/internal/axis"
	"thymesim/internal/cache"
	"thymesim/internal/dram"
	"thymesim/internal/inject"
	"thymesim/internal/memport"
	"thymesim/internal/metricsplane"
	"thymesim/internal/netlink"
	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

// Node IDs of the two-node testbed.
const (
	BorrowerID = 0
	LenderID   = 1
)

// RemoteBase is the borrower physical address where the hot-plugged remote
// memory window begins; LenderBase is where the reservation sits in lender
// memory.
const (
	RemoteBase uint64 = 0x1000_0000_0000
	LenderBase uint64 = 0x20_0000_0000
)

// ProbeTagBase is the start of the tag range reserved for control-plane
// probe packets. Each probe gets a unique tag from this range, so a stale
// response (from an abandoned attach, or one delayed past its deadline)
// can never be mistaken for the reply to a newer probe.
const ProbeTagBase uint32 = 0xFFFF_0000

// IsProbeTag reports whether a tag belongs to the probe range.
func IsProbeTag(tag uint32) bool { return tag >= ProbeTagBase }

// Config parameterizes the testbed.
type Config struct {
	// Period is the delay injector PERIOD in FPGA cycles; 1 reproduces
	// vanilla ThymesisFlow (every cycle passes).
	Period int64
	// Gate, when non-nil, overrides Period with a custom injection gate
	// (distribution-based injection, trace replay, ...).
	Gate axis.Gate
	// FPGACycle is the NIC datapath clock (COUNTER granularity).
	FPGACycle sim.Duration
	// PortLatency is the CPU<->NIC OpenCAPI transport per direction.
	PortLatency sim.Duration
	// NICPipeline is the NIC serializer/PHY fixed latency per direction.
	NICPipeline sim.Duration
	// LinkBandwidthBps and LinkPropagation describe the cable.
	LinkBandwidthBps float64
	LinkPropagation  sim.Duration
	// MSHRs bounds outstanding line fills per hierarchy; TagSpace bounds
	// outstanding OpenCAPI commands at the shared borrower port.
	MSHRs    int
	TagSpace int
	// InjectClasses is the number of QoS priority classes at the delay
	// injector (1 = the paper's single-queue hardware).
	InjectClasses int
	// ARQ, when non-nil, interposes a retransmission layer between the
	// borrower port and the NIC: block operations become sequence-numbered
	// transactions that survive drops, nacks, and flaps (or fail crisply
	// with a poisoned completion). Nil reproduces the prototype's
	// recovery-free datapath.
	ARQ *tfnic.ARQConfig
	// FillDeadline, when positive, bounds every borrower-port transaction
	// end to end: a fill or writeback that has not resolved within it
	// completes poisoned immediately instead of waiting out ARQ death or a
	// hung lender. 0 reproduces the unbounded prototype.
	FillDeadline sim.Duration
	// Profile sets interconnect wire overheads (zero value = OpenCAPI
	// over Ethernet).
	Profile ocapi.Profile
	// Metrics, when non-nil, attaches the labeled metrics plane, which
	// pulls every wired component's counters (NICs, ARQ, backends, DRAM,
	// caches, links, allocators) when a run returns. The plane only
	// observes: simulated results are identical with it enabled or
	// disabled.
	Metrics *metricsplane.Plane
	// WindowSize is the remote memory reservation size in bytes.
	WindowSize uint64
	// LenderDRAM configures the lender's memory subsystem.
	LenderDRAM dram.Config
	// BorrowerDRAM configures the borrower's local memory (baselines).
	BorrowerDRAM dram.Config
	// LLC configures per-hierarchy last-level cache geometry.
	LLC cache.Config
}

// DefaultConfig returns AC922-testbed-like parameters with the injector at
// the given PERIOD.
func DefaultConfig(period int64) Config {
	return Config{
		Period:           period,
		FPGACycle:        inject.DefaultFPGACycle,
		PortLatency:      150 * sim.Nanosecond,
		NICPipeline:      150 * sim.Nanosecond,
		LinkBandwidthBps: netlink.DefaultBandwidthBps,
		LinkPropagation:  netlink.DefaultPropagation,
		MSHRs:            memport.DefaultMSHRs,
		TagSpace:         256,
		InjectClasses:    1,
		WindowSize:       64 << 30,
		LenderDRAM:       dram.AC922Config(),
		BorrowerDRAM:     dram.AC922Config(),
		LLC:              cache.Config{SizeBytes: 4 << 20, Ways: 16, LineSize: ocapi.CacheLineSize},
	}
}

// maxLatency bounds every configured latency and the injector's slot
// (PERIOD FPGA cycles): a simulated second is a million times the
// prototype's round trip and keeps sim.Time arithmetic far from overflow.
const maxLatency = sim.Second

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FPGACycle <= 0 || c.FPGACycle > maxLatency {
		return fmt.Errorf("cluster: FPGACycle = %v (want 0 < cycle <= %v)", c.FPGACycle, maxLatency)
	}
	if c.Period < 0 {
		return fmt.Errorf("cluster: PERIOD = %d", c.Period)
	}
	if c.Gate == nil && c.Period == 0 {
		return fmt.Errorf("cluster: need Period >= 1 or a Gate")
	}
	if c.Gate == nil && c.Period > int64(maxLatency/c.FPGACycle) {
		return fmt.Errorf("cluster: PERIOD = %d makes an injector slot longer than %v", c.Period, maxLatency)
	}
	for _, l := range []struct {
		name string
		d    sim.Duration
	}{{"PortLatency", c.PortLatency}, {"NICPipeline", c.NICPipeline}, {"LinkPropagation", c.LinkPropagation}} {
		if l.d < 0 || l.d > maxLatency {
			return fmt.Errorf("cluster: %s = %v (want 0 <= latency <= %v)", l.name, l.d, maxLatency)
		}
	}
	if !(c.LinkBandwidthBps >= 1) || math.IsInf(c.LinkBandwidthBps, 1) {
		return fmt.Errorf("cluster: LinkBandwidthBps = %v (want a finite rate of at least 1 B/s)", c.LinkBandwidthBps)
	}
	if c.MSHRs <= 0 || c.TagSpace < c.MSHRs {
		return fmt.Errorf("cluster: MSHRs=%d TagSpace=%d (tags must cover MSHRs)", c.MSHRs, c.TagSpace)
	}
	if c.InjectClasses < 1 {
		return fmt.Errorf("cluster: InjectClasses = %d", c.InjectClasses)
	}
	if c.ARQ != nil {
		if err := c.ARQ.Validate(); err != nil {
			return err
		}
	}
	if c.FillDeadline < 0 {
		return fmt.Errorf("cluster: negative FillDeadline")
	}
	if c.WindowSize == 0 || c.WindowSize%ocapi.CacheLineSize != 0 {
		return fmt.Errorf("cluster: window size %d", c.WindowSize)
	}
	if err := c.LenderDRAM.Validate(); err != nil {
		return err
	}
	if err := c.BorrowerDRAM.Validate(); err != nil {
		return err
	}
	return c.LLC.Validate()
}

// Testbed is the composed two-node system: a 1-borrower × 1-lender Pool
// with the paper's fixed pairing, kept as the convenience surface every
// experiment and test drives. Pool() exposes the underlying node-graph.
type Testbed struct {
	K   *sim.Kernel
	cfg Config

	BorrowerNIC *tfnic.NIC
	LenderNIC   *tfnic.NIC
	LenderMem   *dram.DRAM
	BorrowerMem *dram.DRAM
	Link        *netlink.Link

	// ARQ is the borrower-side retransmission layer (nil unless
	// Config.ARQ was set).
	ARQ *tfnic.ARQ

	pool     *Pool
	borrower *BorrowerNode
	backend  *memport.RemoteBackend
}

// NewTestbed wires the system and programs the remote-memory window. It is
// exactly NewPool(1×1) with the default pairing plus one full-reservation
// attach, so the two-node experiments are a special case of the pool.
func NewTestbed(cfg Config) *Testbed {
	p := NewPool(PoolConfig{Borrowers: 1, Lenders: 1, Base: cfg})
	if _, err := p.Attach(0, cfg.WindowSize); err != nil {
		panic(err)
	}
	b := p.Borrowers[0]
	l := p.Lenders[0]
	return &Testbed{
		K:           p.K,
		cfg:         cfg,
		BorrowerNIC: b.NIC,
		LenderNIC:   l.NIC,
		LenderMem:   l.Mem,
		BorrowerMem: b.Mem,
		Link:        p.Link,
		ARQ:         b.ARQ,
		pool:        p,
		borrower:    b,
		backend:     b.backend,
	}
}

// Config returns the testbed configuration.
func (tb *Testbed) Config() Config { return tb.cfg }

// Kernel returns the simulation kernel (satisfies control.Prober).
func (tb *Testbed) Kernel() *sim.Kernel { return tb.K }

// Pool returns the underlying 1×1 node-graph.
func (tb *Testbed) Pool() *Pool { return tb.pool }

// Gate returns the active injection gate.
func (tb *Testbed) Gate() axis.Gate { return tb.borrower.gate }

// EnableTracing builds a span tracer on the testbed's kernel and installs
// its taps across the datapath (both NICs, every existing backend). Call
// it before creating hierarchies so they pick up the tracer at
// construction; hierarchies created earlier stay untraced. Tracing only
// observes — timing is bit-identical with it on or off.
func (tb *Testbed) EnableTracing(cfg obs.Config) *obs.Tracer {
	return tb.pool.EnableTracing(cfg)
}

// Tracer returns the span tracer, or nil when tracing is disabled.
func (tb *Testbed) Tracer() *obs.Tracer { return tb.pool.Tracer() }

// Metrics returns the attached metrics plane, or nil when disabled.
func (tb *Testbed) Metrics() *metricsplane.Plane { return tb.pool.Metrics() }

// RemoteBackend exposes the shared borrower port (diagnostics).
func (tb *Testbed) RemoteBackend() *memport.RemoteBackend { return tb.backend }

// ProbeWaiters returns control-plane probes awaiting a response.
func (tb *Testbed) ProbeWaiters() int { return tb.borrower.ProbeWaiters() }

// StaleProbeResponses returns probe responses that arrived after their
// waiter expired or was abandoned.
func (tb *Testbed) StaleProbeResponses() uint64 { return tb.borrower.StaleProbeResponses() }

// NewRemoteHierarchy returns a CPU-side hierarchy whose misses traverse the
// full disaggregated datapath (borrower NIC -> injector -> link -> lender
// DRAM). Multiple hierarchies share the NIC and tag space, which is how
// MCBN contention arises.
func (tb *Testbed) NewRemoteHierarchy() *memport.Hierarchy {
	return tb.borrower.NewRemoteHierarchy()
}

// NewRemoteHierarchyPrio is NewRemoteHierarchy with a dedicated backend
// stamping the given QoS class on its requests (0 = highest priority;
// classes beyond Config.InjectClasses-1 are clamped by the NIC).
func (tb *Testbed) NewRemoteHierarchyPrio(prio uint8) *memport.Hierarchy {
	return tb.borrower.NewRemoteHierarchyPrio(prio)
}

// NewLocalHierarchy returns a hierarchy against the borrower's own DRAM —
// the "local memory" baseline of Table I.
func (tb *Testbed) NewLocalHierarchy() *memport.Hierarchy {
	return tb.borrower.NewLocalHierarchy()
}

// NewLenderLocalHierarchy returns a hierarchy for applications running on
// the lender node against lender DRAM — the contending applications of the
// MCLN scenario (Fig. 7).
func (tb *Testbed) NewLenderLocalHierarchy() *memport.Hierarchy {
	return tb.pool.NewLenderLocalHierarchy(0)
}

// SendProbe transmits a control-plane probe through the (gated) egress
// path and calls done with the response when it returns. It reports false
// if the NIC command queue is saturated and the probe could not even be
// enqueued. A probe rejected by the lender (corrupted on the wire) never
// calls done — the caller's own deadline is its recovery.
func (tb *Testbed) SendProbe(done func(rtt sim.Duration)) bool {
	return tb.Probe(0, func(ok bool, rtt sim.Duration) {
		if ok {
			done(rtt)
		}
	})
}

// Probe is SendProbe with an explicit response deadline: done(false, 0)
// fires if no healthy response arrives within it (0 = wait forever). This
// is the heartbeat primitive the link supervisor drives re-attach from.
func (tb *Testbed) Probe(deadline sim.Duration, done func(ok bool, rtt sim.Duration)) bool {
	return tb.borrower.ProbeLender(tb.pool.Lenders[0], deadline, done)
}

// CrashLender stops the lender's memory service: in-flight serves are
// lost and subsequent requests — probes included — are black-holed, so the
// borrower sees a silent peer, not an error (inject.FaultTarget).
func (tb *Testbed) CrashLender() { tb.pool.CrashLender(0) }

// RestoreLender restarts the lender. With wipe, the window state was lost
// across the crash: block requests are nacked until a control-plane probe
// re-arms the window (the supervisor's re-attach does exactly that).
func (tb *Testbed) RestoreLender(wipe bool) { tb.pool.RestoreLender(0, wipe) }

// SetLenderSlowdown sets the lender memory service-time inflation factor
// (brownout injection); 1 restores nominal service.
func (tb *Testbed) SetLenderSlowdown(factor float64) { tb.pool.SetLenderSlowdown(0, factor) }

// SetFillOutcomeObserver registers fn on the shared borrower-port backend
// to observe every transaction outcome exactly once (the circuit breaker's
// feed). Per-priority backends created later are unaffected.
func (tb *Testbed) SetFillOutcomeObserver(fn func(ok bool)) {
	tb.backend.SetOutcomeObserver(fn)
}

// RemoteAddr maps an offset within the reservation to a borrower physical
// address in the hot-plugged window.
func (tb *Testbed) RemoteAddr(offset uint64) uint64 {
	if offset >= tb.cfg.WindowSize {
		panic(fmt.Sprintf("cluster: offset %#x beyond window %#x", offset, tb.cfg.WindowSize))
	}
	return RemoteBase + offset
}
