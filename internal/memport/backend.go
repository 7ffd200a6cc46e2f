package memport

import (
	"fmt"

	"thymesim/internal/dram"
	"thymesim/internal/metricsplane"
	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// DRAMBackend services lines against local memory — the baseline
// ("local") configuration of the paper's Table I.
type DRAMBackend struct {
	mem    *dram.DRAM
	tracer *obs.Tracer
}

// NewDRAMBackend wraps a DRAM instance.
func NewDRAMBackend(mem *dram.DRAM) *DRAMBackend { return &DRAMBackend{mem: mem} }

// SetTracer enables span attribution of the DRAM queue/access stages.
func (b *DRAMBackend) SetTracer(tr *obs.Tracer) { b.tracer = tr }

// ReadLine implements LineBackend.
func (b *DRAMBackend) ReadLine(addr uint64, sp obs.SpanID, h sim.Handler, arg uint64) {
	b.mem.AccessSpanH(addr, ocapi.CacheLineSize, false, b.tracer, sp, h, arg)
}

// WriteLine implements LineBackend.
func (b *DRAMBackend) WriteLine(addr uint64, h sim.Handler, arg uint64) {
	b.mem.AccessSpanH(addr, ocapi.CacheLineSize, true, nil, 0, h, arg)
}

// Sender is the slice of the NIC the remote backend needs (satisfied by
// *tfnic.NIC).
type Sender interface {
	TrySend(p ocapi.Packet) bool
	OnCmdSpace(fn func())
}

// RemoteBackend services lines across the ThymesisFlow datapath: each miss
// becomes an OpenCAPI read/write command through the borrower NIC (and
// therefore through the delay injector), as in Fig. 1.
type RemoteBackend struct {
	k    *sim.Kernel
	nic  Sender
	tags *ocapi.TagAllocator
	// tagBase offsets this backend's tags so several backends can share
	// one NIC with disjoint tag ranges (multi-lender borrowing).
	tagBase  uint32
	tagCount uint32
	// portLatency is the CPU-to-NIC OpenCAPI transport cost, applied per
	// direction.
	portLatency sim.Duration
	src, dst    uint16
	prio        uint8

	// pending holds each outstanding tag's transaction context at index
	// tag-tagBase (nil when the tag is free); sendQ holds contexts waiting
	// for a tag or for NIC command-queue space.
	pending []*rtxn
	sendQ   []*rtxn
	// free recycles transaction contexts so steady-state issues allocate
	// nothing; live counts the contexts borrowed and not yet returned.
	free *rtxn
	live int

	// deadline bounds each transaction end to end (issue to response
	// delivery); 0 disables. An expired transaction completes immediately
	// with poisoned semantics, and its late response — if one ever comes —
	// is consumed silently. Deadlines are armed on the kernel's timer
	// wheel and cancelled for real at delivery.
	deadline sim.Duration
	// onOutcome, when set, observes every transaction outcome exactly once
	// (the circuit breaker's feed): true for a healthy completion, false
	// for poisoned, nacked, or deadline-expired ones.
	onOutcome func(ok bool)

	reads, writes uint64
	poisoned      uint64
	expired       uint64 // transactions completed by deadline expiry
	expiredUnsent uint64 // expired before ever entering the NIC
	lateResponses uint64 // responses that arrived after their deadline

	tracer *obs.Tracer // nil when tracing is disabled
	// lat and rec are the metrics plane's per-event instruments: the
	// fill-latency histogram (nil when the plane is disabled) and the
	// flight recorder for poisons and expiries. The counters above are
	// pulled by the plane, not pushed.
	lat *metricsplane.Histogram
	rec metricsplane.NodeRecorder
}

// tagNone marks a transaction that holds no tag yet (still crossing the
// CPU→NIC port hop or queued for a tag). It sits inside the probe range,
// which backends never allocate from.
const tagNone = ^uint32(0)

// rtxn is the pooled per-command context: it rides the two port-latency
// hops (arg 0 = CPU→NIC transport done, arg 1 = NIC→CPU transport done)
// plus its own deadline expiry (arg 2, armed on the timer wheel) and
// carries everything the pump and the completion need, replacing the
// per-issue closures and the parallel callback/pendWrite bookkeeping.
type rtxn struct {
	b      *RemoteBackend
	op     ocapi.Op
	addr   uint64
	issued sim.Time
	sp     obs.SpanID
	tag    uint32
	// dl is the armed end-to-end deadline; Deliver cancels it for real on
	// the wheel, so a deadline that fires always belongs to the live
	// transaction.
	dl sim.TimerID
	// expired marks a transaction already completed by its deadline; its
	// eventual response is consumed without a second completion.
	expired bool
	// poisonedResp records that the delivered response carried poison (the
	// outcome feed and the completion run one port hop after delivery).
	poisonedResp bool
	// Completion handler; nil for fire-and-forget writebacks and
	// prefetches.
	h    sim.Handler
	arg  uint64
	next *rtxn
}

// Handle implements sim.Handler.
func (t *rtxn) Handle(stage uint64) {
	b := t.b
	if stage == 2 {
		// The end-to-end deadline fired. Delivery cancels the timer, so a
		// firing always means the transaction is still unresolved.
		if !t.expired {
			b.expire(t)
		}
		return
	}
	if stage == 0 {
		if t.expired {
			// Deadline fired while the command was still crossing the
			// CPU→NIC hop; the completion already ran. Drop it here.
			b.expiredUnsent++
			b.rec.Record(b.k.Now(), metricsplane.EvFillExpiredUnsent, 0)
			b.recycle(t)
			return
		}
		// Arrived at the NIC port: wait for a tag + command-queue entry.
		b.tracer.Enter(t.sp, obs.StageTagWait)
		t.issued = b.k.Now()
		b.sendQ = append(b.sendQ, t)
		b.pump()
		return
	}
	// Response crossed the port back to the CPU.
	tag := t.tag
	if t.expired {
		// Already completed poisoned at the deadline; just settle the
		// accounting so the tag and context recirculate.
		b.recycle(t)
		b.tagsRelease(tag)
		b.pump()
		return
	}
	if t.op == ocapi.OpWriteBlock {
		b.writes++
	} else {
		b.reads++
	}
	ok := !t.poisonedResp
	if b.lat != nil {
		now := b.k.Now()
		b.lat.Observe(now.Sub(t.issued).Micros())
		if !ok {
			b.rec.Record(now, metricsplane.EvFillPoisoned, 0)
		}
	}
	h, arg := t.h, t.arg
	b.recycle(t)
	b.tagsRelease(tag)
	b.pump()
	if b.onOutcome != nil {
		b.onOutcome(ok)
	}
	if h != nil {
		h.Handle(arg)
	}
}

// recycle returns a context to the free list. The deadline id is cleared
// defensively — on every recycle path the timer has already fired or been
// cancelled, and the wheel's generation guard would reject a stale cancel
// anyway.
func (b *RemoteBackend) recycle(t *rtxn) {
	b.k.CancelTimer(t.dl)
	t.dl = sim.TimerID{}
	t.h = nil
	t.next = b.free
	b.free = t
	b.live--
}

// expire completes a transaction poisoned at its deadline. The completion
// runs now; the transaction's wire state unwinds on its own — a queued
// command is withdrawn, an in-flight one resolves later and is consumed
// silently.
func (b *RemoteBackend) expire(t *rtxn) {
	t.expired = true
	b.expired++
	b.poisoned++
	if t.op == ocapi.OpWriteBlock {
		b.writes++
	} else {
		b.reads++
	}
	b.rec.Record(b.k.Now(), metricsplane.EvFillExpired, 0)
	h, arg := t.h, t.arg
	t.h = nil
	if t.tag == tagNone {
		// Never sent. If it still waits in the send queue, withdraw it;
		// otherwise it is mid port-hop and Handle(0) cleans up.
		for i, q := range b.sendQ {
			if q == t {
				copy(b.sendQ[i:], b.sendQ[i+1:])
				b.sendQ[len(b.sendQ)-1] = nil
				b.sendQ = b.sendQ[:len(b.sendQ)-1]
				b.expiredUnsent++
				b.rec.Record(b.k.Now(), metricsplane.EvFillExpiredUnsent, 0)
				b.recycle(t)
				break
			}
		}
	}
	if b.onOutcome != nil {
		b.onOutcome(false)
	}
	if h != nil {
		h.Handle(arg)
	}
}

// armDeadline schedules a transaction's end-to-end deadline on the
// kernel's timer wheel (stage 2 of the transaction's own handler).
func (b *RemoteBackend) armDeadline(t *rtxn) {
	t.dl = b.k.ArmTimer(b.deadline, t, 2)
}

// NewRemoteBackend builds the borrower-side remote memory backend. tags
// bounds outstanding OpenCAPI commands (set it >= the MSHR window plus
// writeback slack).
func NewRemoteBackend(k *sim.Kernel, nic Sender, tagSpace int, portLatency sim.Duration, src, dst uint16) *RemoteBackend {
	return NewRemoteBackendTags(k, nic, 0, tagSpace, portLatency, src, dst)
}

// NewRemoteBackendTags is NewRemoteBackend with an explicit tag range
// [tagBase, tagBase+tagSpace): backends sharing a NIC must use disjoint
// ranges so responses route unambiguously.
func NewRemoteBackendTags(k *sim.Kernel, nic Sender, tagBase uint32, tagSpace int, portLatency sim.Duration, src, dst uint16) *RemoteBackend {
	b := &RemoteBackend{
		k:           k,
		nic:         nic,
		tags:        ocapi.NewTagAllocator(tagSpace),
		tagBase:     tagBase,
		tagCount:    uint32(tagSpace),
		portLatency: portLatency,
		src:         src,
		dst:         dst,
		pending:     make([]*rtxn, tagSpace),
	}
	nic.OnCmdSpace(b.pump)
	return b
}

// SetTracer enables span attribution of the port/tag stages; the span id
// is stamped into outgoing packets so the NIC layers downstream can keep
// attributing.
func (b *RemoteBackend) SetTracer(tr *obs.Tracer) { b.tracer = tr }

// SetMetrics attaches the metrics plane's per-event instruments: the
// fill-latency histogram and the flight-recorder handle for poisons and
// expiries. A nil histogram (plane disabled) keeps the datapath on its
// one-pointer-test fast path.
func (b *RemoteBackend) SetMetrics(lat *metricsplane.Histogram, rec metricsplane.NodeRecorder) {
	b.lat, b.rec = lat, rec
}

// SetDeadline bounds every subsequently issued transaction end to end:
// a transaction that has not delivered its response within d completes
// poisoned instead (the consumer learns promptly; the data must not be
// trusted). 0 disables. Negative deadlines are rejected.
func (b *RemoteBackend) SetDeadline(d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("memport: negative deadline %v", d))
	}
	b.deadline = d
}

// Deadline returns the active per-transaction deadline (0 = disabled).
func (b *RemoteBackend) Deadline() sim.Duration { return b.deadline }

// SetOutcomeObserver registers fn to observe every transaction outcome
// exactly once: true for healthy completions, false for poisoned, nacked,
// or deadline-expired ones. This is the circuit breaker's feed.
func (b *RemoteBackend) SetOutcomeObserver(fn func(ok bool)) { b.onOutcome = fn }

// SetPriority assigns the QoS class stamped on this backend's requests
// (0 = highest). It takes effect for subsequently issued commands.
func (b *RemoteBackend) SetPriority(p uint8) { b.prio = p }

// Priority returns the backend's QoS class.
func (b *RemoteBackend) Priority() uint8 { return b.prio }

// Owns reports whether a response tag belongs to this backend's range and
// is outstanding.
func (b *RemoteBackend) Owns(tag uint32) bool {
	return b.lookup(tag) != nil
}

// lookup returns the transaction outstanding under tag, or nil when the
// tag is outside this backend's range or not outstanding.
func (b *RemoteBackend) lookup(tag uint32) *rtxn {
	if tag < b.tagBase || tag-b.tagBase >= b.tagCount {
		return nil
	}
	return b.pending[tag-b.tagBase]
}

// Reads returns completed line reads.
func (b *RemoteBackend) Reads() uint64 { return b.reads }

// Writes returns completed line writes.
func (b *RemoteBackend) Writes() uint64 { return b.writes }

// Poisoned returns completions whose data must not be trusted: lender
// nacks consumed without an ARQ layer, or transactions the ARQ layer
// declared dead. The access completes (no hang); the damage is visible
// here.
func (b *RemoteBackend) Poisoned() uint64 { return b.poisoned }

// Expired returns transactions completed poisoned by their deadline.
func (b *RemoteBackend) Expired() uint64 { return b.expired }

// ExpiredUnsent returns the subset of Expired that never entered the NIC
// (the command was withdrawn before it could be sent).
func (b *RemoteBackend) ExpiredUnsent() uint64 { return b.expiredUnsent }

// LateResponses returns responses that arrived after their transaction's
// deadline had already completed it; they were consumed silently.
func (b *RemoteBackend) LateResponses() uint64 { return b.lateResponses }

// TxnsLive returns the pooled transaction contexts borrowed and not yet
// returned: 0 once the kernel drains, unless a response was lost.
func (b *RemoteBackend) TxnsLive() int { return b.live }

// Outstanding returns commands in flight.
func (b *RemoteBackend) Outstanding() int { return b.tags.Outstanding() }

// QueuedSends returns requests waiting to enter the NIC.
func (b *RemoteBackend) QueuedSends() int { return len(b.sendQ) }

// ReadLine implements LineBackend.
func (b *RemoteBackend) ReadLine(addr uint64, sp obs.SpanID, h sim.Handler, arg uint64) {
	b.issue(b.newTxn(ocapi.OpReadBlock, addr, sp, h, arg))
}

// WriteLine implements LineBackend.
func (b *RemoteBackend) WriteLine(addr uint64, h sim.Handler, arg uint64) {
	b.issue(b.newTxn(ocapi.OpWriteBlock, addr, 0, h, arg))
}

// newTxn borrows a transaction context from the free list.
func (b *RemoteBackend) newTxn(op ocapi.Op, addr uint64, sp obs.SpanID, h sim.Handler, arg uint64) *rtxn {
	t := b.free
	if t == nil {
		t = &rtxn{b: b}
	} else {
		b.free = t.next
		t.next = nil
	}
	b.live++
	t.op, t.addr, t.sp, t.h, t.arg = op, ocapi.LineAlign(addr), sp, h, arg
	t.tag = tagNone
	t.expired, t.poisonedResp = false, false
	return t
}

func (b *RemoteBackend) issue(t *rtxn) {
	// CPU -> NIC transport latency, then queue for a tag + NIC entry.
	b.tracer.Enter(t.sp, obs.StagePortTx)
	if b.deadline > 0 {
		b.armDeadline(t)
	}
	b.k.AfterH(b.portLatency, t, 0)
}

// pump drains the send queue while tags and NIC space allow.
func (b *RemoteBackend) pump() {
	for len(b.sendQ) > 0 {
		raw, ok := b.tags.Alloc()
		if !ok {
			return
		}
		tag := b.tagBase + raw
		t := b.sendQ[0]
		p := ocapi.Packet{
			Op:     t.op,
			Tag:    tag,
			Addr:   t.addr,
			Size:   ocapi.CacheLineSize,
			Src:    b.src,
			Dst:    b.dst,
			Issued: t.issued,
			Prio:   b.prio,
			Trace:  uint64(t.sp),
		}
		if !b.nic.TrySend(p) {
			b.tags.Release(raw)
			return
		}
		t.tag = tag
		copy(b.sendQ, b.sendQ[1:])
		b.sendQ[len(b.sendQ)-1] = nil
		b.sendQ = b.sendQ[:len(b.sendQ)-1]
		b.pending[raw] = t
	}
}

// tagsRelease returns a tag's allocator slot.
func (b *RemoteBackend) tagsRelease(tag uint32) { b.tags.Release(tag - b.tagBase) }

// Deliver completes a response from the NIC; wire it to NIC.OnDeliver.
func (b *RemoteBackend) Deliver(p ocapi.Packet) {
	t := b.lookup(p.Tag)
	if t == nil {
		panic("memport: response for unknown tag")
	}
	b.pending[p.Tag-b.tagBase] = nil
	// Delivery beats any armed deadline: the response reached the port, so
	// expiry is moot from here on.
	b.k.CancelTimer(t.dl)
	if t.expired {
		// Already completed poisoned at its deadline; the straggler is
		// consumed silently (Handle(1) settles the tag and context).
		b.lateResponses++
		b.rec.Record(b.k.Now(), metricsplane.EvFillLate, 0)
	} else {
		t.poisonedResp = p.Poison || p.Op == ocapi.OpNack
		if t.poisonedResp {
			b.poisoned++
		}
	}
	// NIC -> CPU transport latency before the fill reaches the cache.
	b.tracer.Enter(obs.SpanID(p.Trace), obs.StagePortRx)
	b.k.AfterH(b.portLatency, t, 1)
}
