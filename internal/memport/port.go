// Package memport is the CPU-side memory interface workloads run against.
//
// A Hierarchy combines the LLC model with a line-granular backend (local
// DRAM or the remote ThymesisFlow datapath) and enforces the MSHR
// discipline: at most Window line fills may be outstanding, which is the
// architectural source of the paper's constant bandwidth-delay product.
package memport

import (
	"fmt"

	"thymesim/internal/cache"
	"thymesim/internal/metrics"
	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// DefaultMSHRs is the modelled outstanding-miss window. 129 lines × 128 B
// ≈ 16.5 kB, the BDP the paper measures in Fig. 3.
const DefaultMSHRs = 129

// LineBackend services whole cache lines asynchronously. Completion is
// h.Handle(arg); a nil h asks for none (posted writebacks, prefetches).
type LineBackend interface {
	// ReadLine fetches the line at addr and calls h.Handle(arg) when data
	// arrives. sp is the fill's trace span (zero when untraced or sampled
	// out); backends that can attribute their per-stage latency do so
	// against it.
	ReadLine(addr uint64, sp obs.SpanID, h sim.Handler, arg uint64)
	// WriteLine writes the line at addr and calls h.Handle(arg) when the
	// write is acknowledged.
	WriteLine(addr uint64, h sim.Handler, arg uint64)
}

// Stats aggregates hierarchy-level counters.
type Stats struct {
	Accesses   uint64
	LineFills  uint64
	Writebacks uint64
	BytesMoved uint64 // bytes moved between cache and backend
}

// Hierarchy is an LLC in front of a LineBackend with an MSHR window.
type Hierarchy struct {
	k       *sim.Kernel
	llc     *cache.Cache
	backend LineBackend
	mshr    *sim.CreditPool

	stats    Stats
	fillLat  *metrics.Histogram // line-fill latency in microseconds
	onFill   func(sim.Duration)
	onAccess func(addr uint64, size int, write bool)
	onMiss   func(lineAddr uint64) // prefetcher hook

	tracer *obs.Tracer // nil when tracing is disabled

	// freeAccess and freeFills recycle the per-access join contexts and
	// per-miss fill continuations, so a warmed-up hierarchy resolves
	// misses without allocating.
	freeAccess *accessCtx
	freeFills  *fillCtx
}

// accessCtx joins a multi-line access: it counts outstanding fills and
// runs done when the last one lands, replacing the captured
// sim.WaitGroup. It exists only for accesses with at least one miss.
type accessCtx struct {
	n    int
	done func()
	next *accessCtx
}

// fillCtx carries one line miss through MSHR grant (arg 0) and backend
// completion (arg 1).
type fillCtx struct {
	h        *Hierarchy
	ac       *accessCtx
	lineAddr uint64
	issued   sim.Time
	sp       obs.SpanID
	next     *fillCtx
}

// Handle implements sim.Handler.
func (fc *fillCtx) Handle(stage uint64) {
	h := fc.h
	if stage == 0 {
		// MSHR granted: issue the line read.
		h.backend.ReadLine(fc.lineAddr, fc.sp, fc, 1)
		return
	}
	// Line arrived.
	lat := h.k.Now().Sub(fc.issued)
	h.fillLat.Observe(lat.Micros())
	if h.onFill != nil {
		h.onFill(lat)
	}
	h.tracer.Finish(fc.sp)
	h.stats.LineFills++
	h.stats.BytesMoved += ocapi.CacheLineSize
	ac := fc.ac
	fc.ac = nil
	fc.next = h.freeFills
	h.freeFills = fc
	h.mshr.Release()
	ac.n--
	if ac.n == 0 && ac.done != nil {
		done := ac.done
		ac.done = nil
		ac.next = h.freeAccess
		h.freeAccess = ac
		done()
	}
}

// NewHierarchy builds a hierarchy with the given LLC and backend. mshrs
// bounds outstanding line fills.
func NewHierarchy(k *sim.Kernel, llc *cache.Cache, backend LineBackend, mshrs int) *Hierarchy {
	if mshrs <= 0 {
		panic("memport: mshrs must be positive")
	}
	return &Hierarchy{
		k:       k,
		llc:     llc,
		backend: backend,
		mshr:    sim.NewCreditPool(k, mshrs),
		fillLat: metrics.NewHistogram(0.001), // 1ns first bucket, in us
	}
}

// Stats returns the counters so far.
func (h *Hierarchy) Stats() Stats { return h.stats }

// CacheStats returns the LLC event counters.
func (h *Hierarchy) CacheStats() cache.Stats { return h.llc.Stats() }

// FillLatency returns the line-fill latency distribution (microseconds).
func (h *Hierarchy) FillLatency() *metrics.Histogram { return h.fillLat }

// OutstandingFills returns the MSHRs currently in use.
func (h *Hierarchy) OutstandingFills() int { return h.mshr.InUse() }

// OnFill registers an observer invoked with every line-fill latency, in
// completion order — used to capture latency traces for replay.
func (h *Hierarchy) OnFill(fn func(sim.Duration)) { h.onFill = fn }

// OnAccess registers an observer invoked with every Access call (before
// cache lookup) — used to capture workload memory traces.
func (h *Hierarchy) OnAccess(fn func(addr uint64, size int, write bool)) { h.onAccess = fn }

// SetTracer enables span tracing: each sampled line fill opens a span
// covering the same interval as the fill-latency histogram (MSHR acquire
// through response delivery), and LLC evictions become instant events.
// Tracing observes only — it schedules no events and consumes no
// randomness — so timing is bit-identical with it on or off.
func (h *Hierarchy) SetTracer(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	h.tracer = tr
	h.llc.OnEviction(func(victimAddr uint64, dirty bool) {
		name := "llc_evict"
		if dirty {
			name = "llc_writeback"
		}
		tr.Instant(name, victimAddr)
	})
}

// Access touches [addr, addr+size) with the given intent and calls done
// when every line is resolved (hits immediately; misses when their fill
// completes). Writebacks of dirty victims are posted: they consume backend
// bandwidth but do not delay done.
func (h *Hierarchy) Access(addr uint64, size int, write bool, done func()) {
	if size <= 0 {
		panic(fmt.Sprintf("memport: access size %d", size))
	}
	h.stats.Accesses++
	if h.onAccess != nil {
		h.onAccess(addr, size, write)
	}
	var ac *accessCtx
	first := ocapi.LineAlign(addr)
	for a := first; a < addr+uint64(size); a += ocapi.CacheLineSize {
		res := h.llc.Access(a, write)
		if res.Writeback {
			h.stats.Writebacks++
			h.stats.BytesMoved += ocapi.CacheLineSize
			h.backend.WriteLine(res.VictimAddr, nil, 0)
		}
		if res.Hit {
			continue
		}
		if ac == nil {
			ac = h.freeAccess
			if ac == nil {
				ac = &accessCtx{}
			} else {
				h.freeAccess = ac.next
				ac.next = nil
			}
		}
		ac.n++
		lineAddr := a
		if h.onMiss != nil {
			h.onMiss(lineAddr)
		}
		sp := h.tracer.Start(obs.KindRead, lineAddr)
		h.tracer.Enter(sp, obs.StageMSHR)
		fc := h.freeFills
		if fc == nil {
			fc = &fillCtx{h: h}
		} else {
			h.freeFills = fc.next
			fc.next = nil
		}
		fc.ac, fc.lineAddr, fc.issued, fc.sp = ac, lineAddr, h.k.Now(), sp
		h.mshr.AcquireH(fc, 0)
	}
	if ac == nil {
		// Every line hit: complete synchronously, as WaitGroup.OnZero did.
		if done != nil {
			done()
		}
		return
	}
	// Fills never complete synchronously (every backend path crosses at
	// least one kernel event), so registering done after the loop cannot
	// miss the last fill.
	ac.done = done
	if ac.done == nil {
		ac.done = nopDone
	}
}

// nopDone stands in for a nil done so the join context always fires and
// recycles.
func nopDone() {}

// Flush invalidates the cache, accounting dirty lines as writebacks. The
// flush's backend traffic is not modelled: it is used between benchmark
// kernels, which are separated by barriers in the harness anyway.
func (h *Hierarchy) Flush() {
	wb := h.llc.Flush()
	for i := 0; i < wb; i++ {
		h.stats.Writebacks++
		h.stats.BytesMoved += ocapi.CacheLineSize
	}
}
