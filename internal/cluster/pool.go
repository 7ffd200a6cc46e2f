package cluster

import (
	"fmt"
	"strconv"

	"thymesim/internal/axis"
	"thymesim/internal/cache"
	"thymesim/internal/dram"
	"thymesim/internal/fabric"
	"thymesim/internal/inject"
	"thymesim/internal/memport"
	"thymesim/internal/metricsplane"
	"thymesim/internal/netlink"
	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/pool"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

// PoolConfig parameterizes a rack-scale memory pool: Borrowers compute
// nodes borrowing memory from Lenders memory nodes. The 1×1 pool with the
// default placement wires the paper's point-to-point testbed exactly;
// larger pools connect every node through a switched fabric.
type PoolConfig struct {
	Borrowers int
	Lenders   int
	// Base carries the per-node datapath parameters (NIC, DRAM, LLC,
	// link, ARQ, deadline). Period/Gate configure each borrower's
	// egress delay injector.
	Base Config
	// Placement chooses the lender for each attach (nil = pool.DefaultPair,
	// the paper's fixed pairing).
	Placement pool.Policy
	// LenderCapacity is each lender's carvable reservation in bytes
	// (0 = Base.WindowSize). Borrower windows are spaced LenderCapacity
	// apart in borrower physical space, so any region can grow to the
	// full reservation without colliding.
	LenderCapacity uint64
	// RackSize groups consecutive fabric node ids into racks for the
	// locality policy's distance metric (0 = everything in one rack).
	RackSize int
	// Shards is ignored at every value: the pool always runs on one event
	// kernel. It remains only because the benchmark module still sets it;
	// a later benchmark change deletes it together with the
	// sim.shard_wall_ratio metric.
	Shards int
}

// DefaultPoolConfig returns an N×M pool of AC922-like nodes at the given
// injector PERIOD.
func DefaultPoolConfig(borrowers, lenders int, period int64) PoolConfig {
	return PoolConfig{
		Borrowers: borrowers,
		Lenders:   lenders,
		Base:      DefaultConfig(period),
	}
}

// Validate checks the configuration.
func (c PoolConfig) Validate() error {
	if c.Borrowers < 1 || c.Lenders < 1 {
		return fmt.Errorf("cluster: pool of %d borrowers x %d lenders", c.Borrowers, c.Lenders)
	}
	if c.RackSize < 0 {
		return fmt.Errorf("cluster: RackSize = %d", c.RackSize)
	}
	if c.LenderCapacity%ocapi.CacheLineSize != 0 {
		return fmt.Errorf("cluster: LenderCapacity %d not line-aligned", c.LenderCapacity)
	}
	return c.Base.Validate()
}

// lenderCapacity returns the effective per-lender reservation.
func (c PoolConfig) lenderCapacity() uint64 {
	if c.LenderCapacity != 0 {
		return c.LenderCapacity
	}
	return c.Base.WindowSize
}

// Region is one borrower-attached remote-memory region: borrower physical
// addresses [Base, Base+Size) served by one lender's segment.
type Region struct {
	Borrower int
	// Lender is the pool-local lender index serving the region.
	Lender int
	// Base and Size describe the borrower-side window.
	Base uint64
	Size uint64
	// Segment is the lender-side carving backing the window.
	Segment pool.Segment
}

// Addr maps an offset within the region to a borrower physical address.
func (r Region) Addr(offset uint64) uint64 {
	if offset >= r.Size {
		panic(fmt.Sprintf("cluster: offset %#x beyond region %#x", offset, r.Size))
	}
	return r.Base + offset
}

// BorrowerNode is one compute node of the pool: a CPU-side port feeding a
// gated NIC, local DRAM for baselines, and the per-node control plane
// (probe waiters, tag ranges, attached regions).
type BorrowerNode struct {
	p *Pool
	// ID is the fabric node id (== switch port); K the pool's kernel.
	ID  int
	K   *sim.Kernel
	NIC *tfnic.NIC
	Mem *dram.DRAM
	// ARQ is the node's retransmission layer (nil unless Base.ARQ set).
	ARQ  *tfnic.ARQ
	gate axis.Gate

	backend   *memport.RemoteBackend
	backends  []*memport.RemoteBackend
	tagCursor uint32
	// sender is what backends send through: the ARQ layer when
	// configured, else the NIC directly.
	sender memport.Sender

	probeWaiters map[uint32]func(ocapi.Packet)
	probeCursor  uint32
	staleProbes  uint64

	nextWindow uint64
	regions    []Region
}

// LenderNode is one memory node: a NIC serving requests against its DRAM,
// and the allocator carving its reservation.
type LenderNode struct {
	// ID is the fabric node id; Index is the pool-local lender index; K
	// the pool's kernel.
	ID    int
	Index int
	K     *sim.Kernel
	NIC   *tfnic.NIC
	Mem   *dram.DRAM
	Alloc *pool.Allocator
}

// Pool is the composed N-borrower × M-lender system: the node-graph
// generalization of the two-node Testbed.
type Pool struct {
	// K is the event kernel every node's components run on.
	K   *sim.Kernel
	cfg PoolConfig

	Borrowers []*BorrowerNode
	Lenders   []*LenderNode

	// Switch is the shared fabric (nil for the 1×1 pool); Link is the
	// 1×1 pool's point-to-point cable (nil otherwise).
	Switch *fabric.Switch
	Link   *netlink.Link
	// links holds each node's cable to the switch, indexed by port
	// (empty for the 1×1 pool).
	links []*netlink.Link

	policy    pool.Policy
	regionsOn []int // live regions per lender, for placement views

	tracer *obs.Tracer
	plane  *metricsplane.Plane
}

// NewPool wires the node-graph. The 1×1 pool reproduces the two-node
// testbed's component graph exactly (same constructors, same order, no
// switch), which is what keeps the paper's CSVs byte-identical; larger
// pools attach every NIC to a shared switch, port i serving node i
// (borrowers first, then lenders).
func NewPool(cfg PoolConfig) *Pool {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Pool{K: sim.NewKernel(), cfg: cfg, regionsOn: make([]int, cfg.Lenders)}
	p.policy = cfg.Placement
	if p.policy == nil {
		p.policy = pool.DefaultPair{}
	}
	base := cfg.Base
	pair := cfg.Borrowers == 1 && cfg.Lenders == 1
	k := p.K

	// Each borrower gets a fresh PeriodGate; the 1×1 pool honours
	// Base.Gate, preserving the two-node testbed's behaviour.
	gateFor := func(int) axis.Gate {
		if pair && base.Gate != nil {
			return base.Gate
		}
		return inject.NewPeriodGate(base.Period, base.FPGACycle)
	}

	nicCfg := func(id, queueScale int) tfnic.Config {
		return tfnic.Config{
			NodeID:          id,
			FPGACycle:       base.FPGACycle,
			PipelineLatency: base.NICPipeline,
			QueueDepth:      2 * base.TagSpace * queueScale,
			InjectClasses:   base.InjectClasses,
			Profile:         base.Profile,
		}
	}

	if pair {
		// The two-node testbed, constructor for constructor: borrower
		// memory, lender memory, both NICs, the point-to-point link.
		b := &BorrowerNode{p: p, ID: BorrowerID, K: k, gate: gateFor(0)}
		b.Mem = dram.New(k, base.BorrowerDRAM)
		lMem := dram.New(k, base.LenderDRAM)
		b.NIC = tfnic.New(k, nicCfg(BorrowerID, 1), b.gate, nil)
		lNIC := tfnic.New(k, nicCfg(LenderID, 1), nil, lMem)
		p.Link = netlink.NewLink(k,
			b.NIC.TxQ, lNIC.RxQ,
			lNIC.TxQ, b.NIC.RxQ,
			base.LinkBandwidthBps, base.LinkPropagation)
		b.finishWiring()
		p.Borrowers = append(p.Borrowers, b)
		p.Lenders = append(p.Lenders, p.newLender(LenderID, 0, k, lNIC, lMem))
		p.EnableMetrics(base.Metrics)
		return p
	}

	swCfg := fabric.DefaultSwitchConfig(cfg.Borrowers + cfg.Lenders)
	swCfg.LinkBandwidthBps = base.LinkBandwidthBps
	swCfg.LinkPropagation = base.LinkPropagation
	// Each input queue absorbs the deepest possible in-flight population
	// (every borrower's full tag space converging on one lender port, plus
	// control-plane slack), so a node-to-switch cable never backpressures
	// and contention shows up only at the output queues. The depth sets
	// results: the committed pool CSVs were produced with it.
	swCfg.InputQueue = 2*base.TagSpace*cfg.Borrowers + 64
	p.Switch = fabric.NewSwitch(k, swCfg)
	attach := func(id int, nic *tfnic.NIC) {
		p.links = append(p.links, p.Switch.AttachNIC(id, fabric.NICPorts{TxQ: nic.TxQ, RxQ: nic.RxQ}))
	}
	for i := 0; i < cfg.Borrowers; i++ {
		b := &BorrowerNode{p: p, ID: i, K: k, gate: gateFor(i)}
		b.Mem = dram.New(k, base.BorrowerDRAM)
		b.NIC = tfnic.New(k, nicCfg(i, 1), b.gate, nil)
		attach(i, b.NIC)
		b.finishWiring()
		p.Borrowers = append(p.Borrowers, b)
	}
	for l := 0; l < cfg.Lenders; l++ {
		id := cfg.Borrowers + l
		mem := dram.New(k, base.LenderDRAM)
		// The lender's response queue must absorb every borrower's
		// outstanding tags at once, so depth scales with borrower count;
		// like the switch input depth, it sets results.
		nic := tfnic.New(k, nicCfg(id, cfg.Borrowers), nil, mem)
		attach(id, nic)
		p.Lenders = append(p.Lenders, p.newLender(id, l, k, nic, mem))
	}
	p.EnableMetrics(base.Metrics)
	return p
}

// newLender builds the lender bookkeeping around its wired components.
func (p *Pool) newLender(id, index int, k *sim.Kernel, nic *tfnic.NIC, mem *dram.DRAM) *LenderNode {
	a, err := pool.NewAllocator(index, LenderBase, p.cfg.lenderCapacity(), ocapi.CacheLineSize)
	if err != nil {
		panic(err)
	}
	return &LenderNode{ID: id, Index: index, K: k, NIC: nic, Mem: mem, Alloc: a}
}

// finishWiring installs the borrower's control plane and shared backend
// once its NIC is cabled: probe routing, the ARQ layer when configured,
// and the first tag-range backend.
func (b *BorrowerNode) finishWiring() {
	base := b.p.cfg.Base
	b.probeWaiters = make(map[uint32]func(ocapi.Packet))
	b.sender = b.NIC
	if base.ARQ != nil {
		b.ARQ = tfnic.NewARQ(b.K, b.NIC, *base.ARQ)
		b.ARQ.OnComplete = b.route
		b.sender = b.ARQ
		b.NIC.OnDeliver = b.ARQ.OnResponse
	} else {
		b.NIC.OnDeliver = b.route
	}
	b.nextWindow = RemoteBase
	b.backend = b.newBackend()
}

// Config returns the pool configuration.
func (p *Pool) Config() PoolConfig { return p.cfg }

// Kernel returns the simulation kernel.
func (p *Pool) Kernel() *sim.Kernel { return p.K }

// Run dispatches events until the kernel drains and returns the final
// simulated time.
func (p *Pool) Run() sim.Time { return p.K.Run() }

// StepTo dispatches every event before t and sets the clock to t; events
// at exactly t fire on the next Run or StepTo. Between StepTo calls the
// caller may touch any node's components: the experiment drivers run
// their control-plane phases (Attach/Detach/Grow, fault injection, probes)
// at these boundaries.
func (p *Pool) StepTo(t sim.Time) { p.K.StepTo(t) }

// Now returns the current simulated time.
func (p *Pool) Now() sim.Time { return p.K.Now() }

// Processed returns the number of events dispatched so far.
func (p *Pool) Processed() uint64 { return p.K.Processed() }

// rackDistance is the locality metric: 0 within a rack, 1 across racks.
func (p *Pool) rackDistance(a, b int) int {
	if p.cfg.RackSize <= 0 || a/p.cfg.RackSize == b/p.cfg.RackSize {
		return 0
	}
	return 1
}

// views snapshots every lender's load for a placement decision, in
// lender-index order.
func (p *Pool) views(borrower int) []pool.LenderView {
	out := make([]pool.LenderView, len(p.Lenders))
	for i, l := range p.Lenders {
		out[i] = pool.LenderView{
			Lender:    l.Index,
			Node:      l.ID,
			Capacity:  l.Alloc.Capacity(),
			Allocated: l.Alloc.Allocated(),
			Regions:   p.regionsOn[i],
			Distance:  p.rackDistance(p.Borrowers[borrower].ID, l.ID),
		}
	}
	return out
}

// Attach carves a region for the borrower: the placement policy picks a
// lender, its allocator carves a segment, and the borrower NIC's
// translator maps a fresh window onto it. Fills to the region then fan to
// that lender by address.
func (p *Pool) Attach(borrower int, size uint64) (Region, error) {
	if borrower < 0 || borrower >= len(p.Borrowers) {
		return Region{}, fmt.Errorf("cluster: borrower %d of %d", borrower, len(p.Borrowers))
	}
	b := p.Borrowers[borrower]
	l, err := p.policy.Place(borrower, size, p.views(borrower))
	if err != nil {
		return Region{}, err
	}
	if l < 0 || l >= len(p.Lenders) {
		return Region{}, fmt.Errorf("cluster: policy %s placed on lender %d of %d", p.policy.Name(), l, len(p.Lenders))
	}
	ln := p.Lenders[l]
	seg, err := ln.Alloc.Alloc(size)
	if err != nil {
		return Region{}, err
	}
	w := tfnic.Window{
		BorrowerBase: b.nextWindow,
		LenderBase:   seg.Base,
		Size:         seg.Size,
		LenderNode:   ln.ID,
	}
	if err := b.NIC.Translator().AddWindow(w); err != nil {
		if ferr := ln.Alloc.Free(seg); ferr != nil {
			panic(ferr)
		}
		return Region{}, err
	}
	r := Region{Borrower: borrower, Lender: l, Base: w.BorrowerBase, Size: w.Size, Segment: seg}
	// Windows are spaced a full reservation apart so in-place growth can
	// never collide with the next region in borrower space.
	b.nextWindow += max(w.Size, p.cfg.lenderCapacity())
	b.regions = append(b.regions, r)
	p.regionsOn[l]++
	return r, nil
}

// Detach unmaps a region and returns its segment to the lender. Accesses
// issued after Detach fault (and fall back to the backend's paired
// destination), so quiesce traffic first — as a real hot-unplug would.
func (p *Pool) Detach(r Region) error {
	b := p.Borrowers[r.Borrower]
	idx := -1
	for i, reg := range b.regions {
		if reg.Base == r.Base && reg.Segment == r.Segment {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("cluster: detach of unknown region %+v", r)
	}
	if !b.NIC.Translator().RemoveWindow(r.Base) {
		return fmt.Errorf("cluster: region %+v has no window", r)
	}
	if err := p.Lenders[r.Lender].Alloc.Free(r.Segment); err != nil {
		return err
	}
	b.regions = append(b.regions[:idx], b.regions[idx+1:]...)
	p.regionsOn[r.Lender]--
	return nil
}

// Grow extends a region in place on its current lender, returning the
// enlarged region. It fails crisply when the adjacent lender space is
// carved out; spilling to another lender is a new Attach, not a Grow.
func (p *Pool) Grow(r Region, newSize uint64) (Region, error) {
	b := p.Borrowers[r.Borrower]
	idx := -1
	for i, reg := range b.regions {
		if reg.Base == r.Base && reg.Segment == r.Segment {
			idx = i
			break
		}
	}
	if idx < 0 {
		return Region{}, fmt.Errorf("cluster: grow of unknown region %+v", r)
	}
	if newSize > p.cfg.lenderCapacity() {
		return Region{}, fmt.Errorf("cluster: grow to %d exceeds lender reservation %d", newSize, p.cfg.lenderCapacity())
	}
	seg, err := p.Lenders[r.Lender].Alloc.Grow(r.Segment, newSize)
	if err != nil {
		return Region{}, err
	}
	if !b.NIC.Translator().RemoveWindow(r.Base) {
		panic(fmt.Sprintf("cluster: region %+v lost its window", r))
	}
	w := tfnic.Window{BorrowerBase: r.Base, LenderBase: seg.Base, Size: seg.Size, LenderNode: p.Lenders[r.Lender].ID}
	if err := b.NIC.Translator().AddWindow(w); err != nil {
		panic(err) // window spacing guarantees the grown window fits
	}
	grown := Region{Borrower: r.Borrower, Lender: r.Lender, Base: r.Base, Size: seg.Size, Segment: seg}
	b.regions[idx] = grown
	return grown, nil
}

// Regions returns a copy of the borrower's attached regions.
func (p *Pool) Regions(borrower int) []Region {
	return append([]Region(nil), p.Borrowers[borrower].regions...)
}

// Policy returns the active placement policy.
func (p *Pool) Policy() pool.Policy { return p.policy }

// EnableTracing builds a span tracer and installs its taps on every NIC
// and every existing backend. Tracing only observes — timing is
// bit-identical with it on or off.
func (p *Pool) EnableTracing(cfg obs.Config) *obs.Tracer {
	if p.tracer != nil {
		panic("cluster: tracing already enabled")
	}
	p.tracer = obs.New(p.K, cfg)
	for _, b := range p.Borrowers {
		b.NIC.SetTracer(p.tracer)
		for _, be := range b.backends {
			be.SetTracer(p.tracer)
		}
	}
	for _, l := range p.Lenders {
		l.NIC.SetTracer(p.tracer)
	}
	p.wireStageRollups()
	return p.tracer
}

// Tracer returns the span tracer, or nil when tracing is disabled.
func (p *Pool) Tracer() *obs.Tracer { return p.tracer }

// EnableMetrics threads the metrics plane through every wired component:
// per-node NIC/ARQ/DRAM instruments, per-backend fill latency histograms,
// per-lender allocator gauges, per-cable link counters, and the switch's
// per-port queue gauges. Like tracing, the plane only observes — simulated
// results are identical with it on or off. nil is a no-op, so NewPool can
// call it unconditionally.
func (p *Pool) EnableMetrics(pl *metricsplane.Plane) {
	if pl == nil {
		return
	}
	if p.plane != nil {
		panic("cluster: metrics already enabled")
	}
	p.plane = pl
	for _, b := range p.Borrowers {
		b.NIC.SetMetrics(pl.NICMetricsFor(b.ID))
		b.Mem.SetMetrics(pl.DRAMMetricsFor(b.ID))
		if b.ARQ != nil {
			b.ARQ.SetMetrics(pl.ARQMetricsFor(b.ID))
		}
		for i, be := range b.backends {
			be.SetMetrics(pl.FillMetricsFor(b.ID, backendTenant(i)))
		}
	}
	for _, l := range p.Lenders {
		l.NIC.SetMetrics(pl.NICMetricsFor(l.ID))
		l.Mem.SetMetrics(pl.DRAMMetricsFor(l.ID))
		l.Alloc.SetMetrics(pl.AllocMetricsFor(l.Index))
	}
	if p.Link != nil {
		// The 1×1 pool's point-to-point cable: link 0 is each node's
		// transmit direction.
		p.Link.AtoB.SetMetrics(pl.LinkMetricsFor(BorrowerID, 0))
		p.Link.BtoA.SetMetrics(pl.LinkMetricsFor(LenderID, 0))
	}
	for port, ln := range p.links {
		// Node-to-switch cables: link 0 = toward the switch, 1 = from it.
		ln.AtoB.SetMetrics(pl.LinkMetricsFor(port, 0))
		ln.BtoA.SetMetrics(pl.LinkMetricsFor(port, 1))
	}
	if p.Switch != nil {
		ports := make([]*metricsplane.SwitchPortMetrics, p.Switch.Ports())
		for i := range ports {
			ports[i] = pl.SwitchPortMetricsFor(i)
		}
		p.Switch.SetMetrics(ports, pl.SwitchDropCounter())
	}
	p.wireStageRollups()
}

// Metrics returns the attached metrics plane, or nil when disabled.
func (p *Pool) Metrics() *metricsplane.Plane { return p.plane }

// wireStageRollups connects the tracer's per-stage completions to the
// plane's stage-time counters. It is a no-op until both tracing and
// metrics are enabled, and is called from each enabler so order does not
// matter.
func (p *Pool) wireStageRollups() {
	if p.tracer == nil || p.plane == nil {
		return
	}
	p.tracer.SetStageObserver(p.plane.StageObserver(metricsplane.Unset, obs.StageNames()))
}

// backendTenant labels a borrower's i-th port backend: the shared port is
// the node's unlabeled tenant (it feeds the SLO tracker); later backends —
// one per dedicated hierarchy — carry their creation index.
func backendTenant(i int) string {
	if i == 0 {
		return ""
	}
	return "be" + strconv.Itoa(i)
}

// CrashLender stops lender l's memory service (inject.FaultTarget
// semantics: requests black-holed, in-flight serves lost).
func (p *Pool) CrashLender(l int) { p.Lenders[l].NIC.Crash() }

// RestoreLender restarts lender l; with wipe, block requests nack until a
// probe re-arms the window state.
func (p *Pool) RestoreLender(l int, wipe bool) { p.Lenders[l].NIC.Restore(wipe) }

// SetLenderSlowdown sets lender l's memory service-time inflation factor
// (brownout injection); 1 restores nominal service.
func (p *Pool) SetLenderSlowdown(l int, factor float64) { p.Lenders[l].Mem.SetSlowdown(factor) }

// newBackend allocates a borrower-port backend with a fresh tag range.
// The destination it stamps is the paired lender (the pool's lender 0);
// translation reroutes block ops per window.
func (b *BorrowerNode) newBackend() *memport.RemoteBackend {
	base := b.tagCursor
	cfg := b.p.cfg.Base
	b.tagCursor += uint32(cfg.TagSpace)
	if base+uint32(cfg.TagSpace) > ProbeTagBase {
		panic("cluster: backend tag range collides with probe tags")
	}
	be := memport.NewRemoteBackendTags(b.K, b.sender, base, cfg.TagSpace, cfg.PortLatency,
		uint16(b.ID), uint16(b.p.pairedLenderNode()))
	if cfg.FillDeadline > 0 {
		be.SetDeadline(cfg.FillDeadline)
	}
	if b.p.tracer != nil {
		be.SetTracer(b.p.tracer)
	}
	if b.p.plane != nil {
		be.SetMetrics(b.p.plane.FillMetricsFor(b.ID, backendTenant(len(b.backends))))
	}
	b.backends = append(b.backends, be)
	return be
}

// pairedLenderNode is the default-destination node for every borrower's
// backends: lender 0, the two-node pairing. Computed from the id layout
// (borrowers first) because backends are wired before lender nodes exist.
func (p *Pool) pairedLenderNode() int { return p.cfg.Borrowers }

// Backend exposes the borrower's shared port backend (diagnostics).
func (b *BorrowerNode) Backend() *memport.RemoteBackend { return b.backend }

// Backends returns all port backends the borrower has created.
func (b *BorrowerNode) Backends() []*memport.RemoteBackend {
	return append([]*memport.RemoteBackend(nil), b.backends...)
}

// route delivers a resolved response to its consumer: probe waiters by
// probe tag, block completions to the owning backend.
func (b *BorrowerNode) route(p ocapi.Packet) {
	if IsProbeTag(p.Tag) {
		fn, ok := b.probeWaiters[p.Tag]
		if !ok {
			b.staleProbes++ // expired or abandoned probe; drop
			return
		}
		delete(b.probeWaiters, p.Tag)
		fn(p)
		return
	}
	for _, be := range b.backends {
		if be.Owns(p.Tag) {
			be.Deliver(p)
			return
		}
	}
	panic(fmt.Sprintf("cluster: response with unowned tag %d", p.Tag))
}

// ProbeWaiters returns control-plane probes awaiting a response.
func (b *BorrowerNode) ProbeWaiters() int { return len(b.probeWaiters) }

// StaleProbeResponses returns probe responses that arrived after their
// waiter expired or was abandoned.
func (b *BorrowerNode) StaleProbeResponses() uint64 { return b.staleProbes }

// nextProbeTag allocates a unique probe tag, skipping live waiters.
func (b *BorrowerNode) nextProbeTag() uint32 {
	for {
		tag := ProbeTagBase + b.probeCursor
		b.probeCursor = (b.probeCursor + 1) & 0xFFFF
		if _, live := b.probeWaiters[tag]; !live {
			return tag
		}
	}
}

// ProbeLender transmits a control-plane probe to the given lender through
// the gated egress with an explicit response deadline: done(false, 0)
// fires if no healthy response arrives within it (0 = wait forever). It
// reports false if the probe could not even be enqueued.
func (b *BorrowerNode) ProbeLender(lender *LenderNode, deadline sim.Duration, done func(ok bool, rtt sim.Duration)) bool {
	p := ocapi.Packet{
		Op:     ocapi.OpProbe,
		Tag:    b.nextProbeTag(),
		Src:    uint16(b.ID),
		Dst:    uint16(lender.ID),
		Issued: b.K.Now(),
	}
	start := b.K.Now()
	if !b.sender.TrySend(p) {
		return false
	}
	tag := p.Tag
	b.probeWaiters[tag] = func(resp ocapi.Packet) {
		if resp.Poison || resp.Op != ocapi.OpProbeResp {
			done(false, 0) // nacked probe: the lender could not trust it
			return
		}
		done(true, b.K.Now().Sub(start))
	}
	if deadline > 0 {
		b.K.After(deadline, func() {
			if _, live := b.probeWaiters[tag]; !live {
				return // already answered
			}
			delete(b.probeWaiters, tag)
			done(false, 0)
		})
	}
	return true
}

// NewRemoteHierarchy returns a CPU-side hierarchy on this borrower whose
// misses traverse the full disaggregated datapath. Hierarchies share the
// node's NIC and tag space — the MCBN contention mechanism.
func (b *BorrowerNode) NewRemoteHierarchy() *memport.Hierarchy {
	cfg := b.p.cfg.Base
	h := memport.NewHierarchy(b.K, b.newLLC(), b.backend, cfg.MSHRs)
	h.SetTracer(b.p.tracer)
	return h
}

// newLLC builds a hierarchy's cache, attaching the metrics plane's
// hit/miss counters when enabled.
func (b *BorrowerNode) newLLC() *cache.Cache {
	c := cache.New(b.p.cfg.Base.LLC)
	if b.p.plane != nil {
		c.SetMetrics(b.p.plane.CacheMetricsFor(b.ID))
	}
	return c
}

// NewRemoteHierarchyPrio is NewRemoteHierarchy with a dedicated backend
// stamping the given QoS class on its requests.
func (b *BorrowerNode) NewRemoteHierarchyPrio(prio uint8) *memport.Hierarchy {
	cfg := b.p.cfg.Base
	be := b.newBackend()
	be.SetPriority(prio)
	h := memport.NewHierarchy(b.K, b.newLLC(), be, cfg.MSHRs)
	h.SetTracer(b.p.tracer)
	return h
}

// NewLocalHierarchy returns a hierarchy against the borrower's own DRAM.
func (b *BorrowerNode) NewLocalHierarchy() *memport.Hierarchy {
	cfg := b.p.cfg.Base
	backend := memport.NewDRAMBackend(b.Mem)
	if b.p.tracer != nil {
		backend.SetTracer(b.p.tracer)
	}
	h := memport.NewHierarchy(b.K, b.newLLC(), backend, cfg.MSHRs)
	h.SetTracer(b.p.tracer)
	return h
}

// NewLenderLocalHierarchy returns a hierarchy for applications running on
// lender l against its own DRAM — the MCLN contenders.
func (p *Pool) NewLenderLocalHierarchy(l int) *memport.Hierarchy {
	cfg := p.cfg.Base
	backend := memport.NewDRAMBackend(p.Lenders[l].Mem)
	if p.tracer != nil {
		backend.SetTracer(p.tracer)
	}
	c := cache.New(cfg.LLC)
	if p.plane != nil {
		c.SetMetrics(p.plane.CacheMetricsFor(p.Lenders[l].ID))
	}
	h := memport.NewHierarchy(p.Lenders[l].K, c, backend, cfg.MSHRs)
	h.SetTracer(p.tracer)
	return h
}

// PairProber adapts one borrower/lender pair to the control-plane Prober
// interface (structurally satisfies control.Prober), so the attach
// handshake and link supervisor run unchanged against any pool pair.
type PairProber struct {
	B *BorrowerNode
	L *LenderNode
}

// SendProbe implements the control-plane probe primitive.
func (pp PairProber) SendProbe(done func(rtt sim.Duration)) bool {
	return pp.B.ProbeLender(pp.L, 0, func(ok bool, rtt sim.Duration) {
		if ok {
			done(rtt)
		}
	})
}

// Probe is SendProbe with an explicit deadline (control.DeadlineProber).
func (pp PairProber) Probe(deadline sim.Duration, done func(ok bool, rtt sim.Duration)) bool {
	return pp.B.ProbeLender(pp.L, deadline, done)
}

// Kernel returns the simulation kernel for timers.
func (pp PairProber) Kernel() *sim.Kernel { return pp.B.K }

// Prober returns the control-plane adapter for a borrower/lender pair.
func (p *Pool) Prober(borrower, lender int) PairProber {
	return PairProber{B: p.Borrowers[borrower], L: p.Lenders[lender]}
}
