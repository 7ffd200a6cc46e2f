// Package migrate implements the OS-level page-migration mechanism the
// paper's §IV-D proposes for latency-sensitive workloads: "applications
// with higher sensitivity to remote memory access latency can benefit
// from additional resource allocation such as ... page migration to local
// memory."
//
// A Migrator interposes on the line-backend interface: it tracks per-page
// remote access counts and, once a page crosses the hotness threshold,
// copies it line by line into a local frame (charging the copy's traffic
// to both memories) and retargets subsequent accesses. Migration is
// asynchronous — accesses issued mid-copy still go remote — and bounded by
// a local-frame budget, like a real kernel's promotion pool.
package migrate

import (
	"fmt"

	"thymesim/internal/memport"
	"thymesim/internal/metricsplane"
	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// Config parameterizes the migrator.
type Config struct {
	// PageBytes is the migration granularity (a power of two multiple of
	// the cache line).
	PageBytes int
	// HotThreshold is the number of remote line accesses after which a
	// page is promoted.
	HotThreshold int
	// MaxPages bounds resident local frames (the promotion budget).
	MaxPages int
	// LocalFrameBase is where promoted frames live in the local physical
	// address space.
	LocalFrameBase uint64
}

// DefaultConfig promotes 64 KiB pages after 32 remote touches.
func DefaultConfig(localFrameBase uint64) Config {
	return Config{
		PageBytes:      64 << 10,
		HotThreshold:   32,
		MaxPages:       1 << 14,
		LocalFrameBase: localFrameBase,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PageBytes < ocapi.CacheLineSize || c.PageBytes%ocapi.CacheLineSize != 0 {
		return fmt.Errorf("migrate: page size %d", c.PageBytes)
	}
	if c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("migrate: page size %d not a power of two", c.PageBytes)
	}
	if c.HotThreshold < 1 {
		return fmt.Errorf("migrate: threshold %d", c.HotThreshold)
	}
	if c.MaxPages < 1 {
		return fmt.Errorf("migrate: max pages %d", c.MaxPages)
	}
	if c.LocalFrameBase%uint64(c.PageBytes) != 0 {
		return fmt.Errorf("migrate: frame base %#x unaligned", c.LocalFrameBase)
	}
	return nil
}

// Stats counts migrator events.
type Stats struct {
	RemoteAccesses uint64
	LocalAccesses  uint64
	Promotions     uint64
	// CopiedLines counts the migration traffic itself.
	CopiedLines uint64
	// Rejected counts promotions skipped for lack of frame budget.
	Rejected uint64
	// DegradedPages counts pages localized after Degrade: fresh frames
	// handed out without copy traffic (there is no link to copy over).
	DegradedPages uint64
	// GateLocalized counts pages localized because the remote gate refused
	// the access (circuit breaker open): same fresh-frame fallback as
	// Degrade, but the remote path may come back.
	GateLocalized uint64
}

type pageState struct {
	touches   int
	migrating bool
	local     bool
	frame     uint64 // local frame base when resident
}

// Migrator is a LineBackend that starts remote and promotes hot pages to
// the local backend.
type Migrator struct {
	k      *sim.Kernel
	remote memport.LineBackend
	local  memport.LineBackend
	cfg    Config

	pages     map[uint64]*pageState
	nextFrame uint64
	resident  int
	degraded  bool
	// deadRanges holds page-aligned address ranges whose remote backing
	// died (one lender of a pool), while the rest stays healthy.
	deadRanges []addrRange
	gate       Gate
	stats      Stats
	mx         *metricsplane.MigrateMetrics // nil when the metrics plane is disabled
}

// addrRange is a half-open [base, end) address range.
type addrRange struct{ base, end uint64 }

// Gate is consulted before each remote access (the circuit breaker's
// Allow satisfies it). A refusal localizes the page — the access is served
// from a fresh local frame instead of hanging on a sick remote path.
type Gate interface {
	Allow() bool
}

// New builds a migrator in front of the two backends.
func New(k *sim.Kernel, remote, local memport.LineBackend, cfg Config) *Migrator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Migrator{
		k:      k,
		remote: remote,
		local:  local,
		cfg:    cfg,
		pages:  make(map[uint64]*pageState),
	}
}

// Stats returns the counters so far.
func (m *Migrator) Stats() Stats { return m.stats }

// SetMetrics attaches the metrics plane's migration counters
// (observe-only; nil disables).
func (m *Migrator) SetMetrics(mx *metricsplane.MigrateMetrics) { m.mx = mx }

// Resident returns the number of promoted pages.
func (m *Migrator) Resident() int { return m.resident }

// Degraded reports whether the migrator has abandoned the remote backend.
func (m *Migrator) Degraded() bool { return m.degraded }

// SetRemoteGate installs g in front of the remote path (nil removes it).
// Unlike Degrade, a gate refusal is per access: Half-Open trial
// transactions still reach the remote backend once the gate admits them.
func (m *Migrator) SetRemoteGate(g Gate) { m.gate = g }

// Degrade switches to local-only operation after the link is declared
// dead. Pages already promoted keep their frames; every other page gets a
// fresh zero-filled local frame on its next touch — the data borrowed on
// the lender is lost, which is exactly the blast radius the caller accepts
// by degrading instead of hanging. Frame allocation ignores MaxPages here:
// refusing a frame would turn a dead link back into a hang.
func (m *Migrator) Degrade() { m.degraded = true }

// DegradeRange abandons the remote backing for [base, base+size) only —
// the blast radius of one dead lender in a multi-lender pool, where
// Degrade's all-or-nothing surrender would needlessly localize regions
// served by healthy lenders. The range is widened to page boundaries
// (localization is per page); pages outside every degraded range keep
// their remote path. Semantics within the range match Degrade: promoted
// pages keep their frames, everything else gets a fresh zero-filled frame
// on its next touch, ignoring MaxPages.
func (m *Migrator) DegradeRange(base, size uint64) {
	start := m.pageOf(base)
	end := base + size
	if r := end & uint64(m.cfg.PageBytes-1); r != 0 {
		end += uint64(m.cfg.PageBytes) - r
	}
	m.deadRanges = append(m.deadRanges, addrRange{base: start, end: end})
}

// rangeDegraded reports whether addr falls in a degraded range.
func (m *Migrator) rangeDegraded(addr uint64) bool {
	for _, r := range m.deadRanges {
		if addr >= r.base && addr < r.end {
			return true
		}
	}
	return false
}

// localize gives a page a resident frame without any copy traffic.
func (m *Migrator) localize(st *pageState) {
	st.local = true
	st.migrating = false
	st.frame = m.cfg.LocalFrameBase + m.nextFrame
	m.nextFrame += uint64(m.cfg.PageBytes)
	m.resident++
}

func (m *Migrator) pageOf(addr uint64) uint64 { return addr &^ uint64(m.cfg.PageBytes-1) }

// state returns (allocating) the tracking entry for addr's page.
func (m *Migrator) state(addr uint64) *pageState {
	pg := m.pageOf(addr)
	st, ok := m.pages[pg]
	if !ok {
		st = &pageState{}
		m.pages[pg] = st
	}
	return st
}

// ReadLine implements memport.LineBackend.
func (m *Migrator) ReadLine(addr uint64, sp obs.SpanID, h sim.Handler, arg uint64) {
	if local, ok := m.route(addr); ok {
		m.local.ReadLine(local, sp, h, arg)
	} else {
		m.remote.ReadLine(addr, sp, h, arg)
	}
}

// WriteLine implements memport.LineBackend.
func (m *Migrator) WriteLine(addr uint64, h sim.Handler, arg uint64) {
	if local, ok := m.route(addr); ok {
		m.local.WriteLine(local, h, arg)
	} else {
		m.remote.WriteLine(addr, h, arg)
	}
}

// route accounts one access to addr and decides where it is served: the
// local frame address and true for a resident page, false for the remote
// path (possibly starting the page's promotion).
func (m *Migrator) route(addr uint64) (uint64, bool) {
	st := m.state(addr)
	if !st.local {
		if m.degraded || m.rangeDegraded(addr) {
			m.localize(st)
			m.stats.DegradedPages++
			m.mx.Degraded(1)
		} else if m.gate != nil && !m.gate.Allow() {
			m.localize(st)
			m.stats.GateLocalized++
			m.mx.GateLocalized()
		}
	}
	if st.local {
		m.stats.LocalAccesses++
		m.mx.Localized()
		return st.frame + (addr & uint64(m.cfg.PageBytes-1)), true
	}
	m.stats.RemoteAccesses++
	st.touches++
	if !st.migrating && st.touches >= m.cfg.HotThreshold {
		m.promote(m.pageOf(addr), st)
	}
	return 0, false
}

// promote copies the page to a local frame, then flips residency. The copy
// streams line by line: each remote read completion issues the local write
// and the next read, so the copy consumes bounded resources and its
// traffic contends honestly with demand accesses.
func (m *Migrator) promote(pg uint64, st *pageState) {
	if m.resident >= m.cfg.MaxPages {
		m.stats.Rejected++
		return
	}
	st.migrating = true
	m.resident++
	frame := m.cfg.LocalFrameBase + m.nextFrame
	m.nextFrame += uint64(m.cfg.PageBytes)
	lines := m.cfg.PageBytes / ocapi.CacheLineSize
	var wg sim.WaitGroup
	wg.Add(lines)
	// Up to 4 copy streams in flight, like a kernel migration worker.
	const copyWindow = 4
	next := 0
	var launch func()
	launch = func() {
		if next >= lines {
			return
		}
		off := uint64(next * ocapi.CacheLineSize)
		next++
		m.remote.ReadLine(pg+off, 0, sim.Func(func() {
			m.stats.CopiedLines++
			m.local.WriteLine(frame+off, sim.Func(func() {
				wg.Done()
				launch()
			}), 0)
		}), 0)
	}
	for i := 0; i < copyWindow && i < lines; i++ {
		launch()
	}
	wg.OnZero(func() {
		if st.local {
			return // localized by Degrade while the copy was in flight
		}
		st.migrating = false
		st.local = true
		st.frame = frame
		m.stats.Promotions++
		m.mx.Promotion()
	})
}
