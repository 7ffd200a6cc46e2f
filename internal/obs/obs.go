// Package obs is the simulation-time span tracer: it follows individual
// transactions (borrower cache miss -> memport -> NIC egress -> delay
// injector -> link -> lender ingress -> DRAM -> response) and records
// per-stage enter/exit timestamps, the decomposition the paper's Table I
// reports from hardware counters.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every public method is nil-safe, so callers
//     hold a possibly-nil *Tracer and call it unconditionally; the disabled
//     fast path is one nil check and allocates nothing.
//  2. Timing-neutral when enabled. The tracer schedules no events and
//     consumes no randomness — enabling it cannot perturb the simulation,
//     so traced and untraced runs produce bit-identical measurements.
//  3. Bounded memory on long runs. Span records are pooled and recycled,
//     a sampling rate bounds how many transactions are traced at all, and
//     raw spans retained for Chrome-trace export are capped; aggregation
//     (per-stage histograms) continues past the cap.
//
// A Tracer is bound to one kernel and holds no package-global state, so
// concurrent testbeds in a parallel sweep each trace independently; do not
// share one Tracer across kernels.
package obs

import (
	"fmt"

	"thymesim/internal/metrics"
	"thymesim/internal/sim"
)

// Stage identifies one segment of the datapath a transaction traverses.
// The values are ordered along the request/response pipeline; breakdown
// output follows this order.
type Stage uint8

// Datapath stages, in pipeline order.
const (
	// StageMSHR is the wait for an MSHR slot at the CPU side.
	StageMSHR Stage = iota
	// StagePortTx is the CPU -> NIC OpenCAPI transport of the request.
	StagePortTx
	// StageTagWait is the wait for a command tag and NIC queue space.
	StageTagWait
	// StageNICEgress is the borrower NIC command queue and routing block.
	StageNICEgress
	// StageInjector is the delay/fault gate at the injection point.
	StageInjector
	// StageNICTx is the egress multiplexer and serializer/PHY to the wire.
	StageNICTx
	// StageLinkRequest is the request on the wire (serialization +
	// propagation, including any TX queueing at the link).
	StageLinkRequest
	// StageLenderIngress is the lender NIC ingress pipeline and dispatch.
	StageLenderIngress
	// StageDRAMQueue is the memory-controller queue wait.
	StageDRAMQueue
	// StageDRAMAccess is the device access latency plus data-bus burst.
	StageDRAMAccess
	// StageLenderEgress is the lender NIC response egress pipeline.
	StageLenderEgress
	// StageLinkResponse is the response on the wire.
	StageLinkResponse
	// StageBorrowerIngress is the borrower NIC ingress and response
	// routing (including the ARQ layer when configured).
	StageBorrowerIngress
	// StagePortRx is the NIC -> CPU transport of the response.
	StagePortRx
	// StageOther absorbs time the instrumentation could not attribute
	// (spans finished without any stage transition).
	StageOther

	// NumStages is the number of defined stages.
	NumStages
)

var stageNames = [NumStages]string{
	"mshr_wait",
	"port_tx",
	"tag_wait",
	"nic_egress",
	"injector",
	"nic_tx",
	"link_request",
	"lender_ingress",
	"dram_queue",
	"dram_access",
	"lender_egress",
	"link_response",
	"borrower_ingress",
	"port_rx",
	"other",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Kind labels what a span measures.
type Kind uint8

// Span kinds.
const (
	KindRead Kind = iota
	KindWrite
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindWrite {
		return "write"
	}
	return "read_fill"
}

// SpanID names a live span. The zero value means "untraced" and makes
// every tracer method a no-op, so sampling decisions propagate for free
// through the datapath (the id rides in ocapi.Packet.Trace).
type SpanID uint64

// Config parameterizes a Tracer.
type Config struct {
	// Sample traces every Nth eligible transaction (<= 1 traces all).
	// Sampling is deterministic (a modular counter, no randomness).
	Sample int
	// MaxRetained caps raw spans (and instant events) kept in memory for
	// Chrome-trace export; 0 means DefaultMaxRetained. Aggregation into
	// histograms continues past the cap.
	MaxRetained int
}

// DefaultMaxRetained bounds raw spans retained for export by default.
const DefaultMaxRetained = 8192

// maxTransitions bounds stage transitions recorded per span. A clean
// remote line fill uses 14; the headroom absorbs ARQ retransmissions.
// Overflowing spans attribute their tail to the last recorded stage and
// are counted in Truncated.
const maxTransitions = 32

type transition struct {
	at    sim.Time
	stage Stage
}

// span is a pooled in-flight record.
type span struct {
	gen   uint32
	live  bool
	kind  Kind
	n     uint8
	trunc uint16
	addr  uint64
	start sim.Time
	tr    [maxTransitions]transition
}

// retainedSpan is a finished span kept for Chrome-trace export.
type retainedSpan struct {
	slot  uint32 // pool slot: reused only after finish, so it makes a track
	kind  Kind
	addr  uint64
	start sim.Time
	end   sim.Time
	tr    []transition
}

type instantEvent struct {
	name string
	addr uint64
	at   sim.Time
}

// Tracer records transaction spans against one simulation kernel. A nil
// *Tracer is valid and disabled; all methods are nil-safe.
type Tracer struct {
	k         *sim.Kernel
	sample    uint64
	tick      uint64
	maxRetain int

	slots []span
	free  []uint32

	started   uint64
	finished  uint64
	skipped   uint64
	truncated uint64

	e2eSum     sim.Duration
	e2e        *metrics.Histogram
	stageSum   [NumStages]sim.Duration
	stageCount [NumStages]uint64
	stageHist  [NumStages]*metrics.Histogram

	retained     []retainedSpan
	instants     []instantEvent
	droppedSpans uint64
	droppedInst  uint64

	// onStage, when set, observes every per-stage duration as Finish
	// attributes it — the metrics plane's stage-rollup feed. Decoupled by
	// a plain func so obs does not depend on the plane.
	onStage func(stage int, durUs float64)
}

// New builds an enabled tracer on k.
func New(k *sim.Kernel, cfg Config) *Tracer {
	if k == nil {
		panic("obs: nil kernel")
	}
	sample := cfg.Sample
	if sample < 1 {
		sample = 1
	}
	maxRetain := cfg.MaxRetained
	if maxRetain <= 0 {
		maxRetain = DefaultMaxRetained
	}
	t := &Tracer{
		k:         k,
		sample:    uint64(sample),
		maxRetain: maxRetain,
		e2e:       metrics.NewHistogram(0.001),
	}
	for i := range t.stageHist {
		t.stageHist[i] = metrics.NewHistogram(0.001)
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SetStageObserver registers fn to receive every per-stage duration as
// spans finish (nil-safe; nil fn clears). The observer must be
// observe-only: it runs inside Finish on the simulation's critical path.
func (t *Tracer) SetStageObserver(fn func(stage int, durUs float64)) {
	if t != nil {
		t.onStage = fn
	}
}

// StageNames returns the datapath stage names indexed by Stage value,
// for observers that label rollups by stage.
func StageNames() []string {
	out := make([]string, NumStages)
	for i := range out {
		out[i] = Stage(i).String()
	}
	return out
}

// Start opens a span for one transaction at the current instant and
// returns its id, or 0 when the tracer is disabled or the transaction is
// sampled out.
func (t *Tracer) Start(kind Kind, addr uint64) SpanID {
	if t == nil {
		return 0
	}
	t.tick++
	if t.sample > 1 && t.tick%t.sample != 0 {
		t.skipped++
		return 0
	}
	var slot uint32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.slots = append(t.slots, span{})
		slot = uint32(len(t.slots) - 1)
	}
	sp := &t.slots[slot]
	gen := sp.gen + 1
	if gen == 0 {
		gen = 1
	}
	*sp = span{gen: gen, live: true, kind: kind, addr: addr, start: t.k.Now()}
	t.started++
	return SpanID(uint64(gen)<<32 | uint64(slot+1))
}

// lookup resolves an id to its live span, or nil for stale/foreign ids.
func (t *Tracer) lookup(id SpanID) *span {
	slot := uint32(id) - 1
	if int(slot) >= len(t.slots) {
		return nil
	}
	sp := &t.slots[slot]
	if !sp.live || sp.gen != uint32(id>>32) {
		return nil
	}
	return sp
}

// Enter records that span id moved into stage st at the current instant,
// implicitly ending the previous stage. No-op for disabled tracers and
// zero ids.
func (t *Tracer) Enter(id SpanID, st Stage) {
	if t == nil || id == 0 {
		return
	}
	t.EnterAt(id, st, t.k.Now())
}

// EnterAt records that span id moves into stage st at instant at, which
// may lie in the future: a hop that computes when a beat will cross a
// stage boundary stamps it then instead of waking up for it. Transitions
// stay in time order, a later-stamped one going after those at the same
// instant, and Finish ignores those past the span's end, so the span
// aggregates as if each had been entered at its instant. When the span's
// transitions are full the latest one is dropped and counted, as Enter
// alone would have dropped it. No-op for disabled tracers and zero ids.
func (t *Tracer) EnterAt(id SpanID, st Stage, at sim.Time) {
	if t == nil || id == 0 {
		return
	}
	sp := t.lookup(id)
	if sp == nil {
		return
	}
	i := int(sp.n)
	for i > 0 && sp.tr[i-1].at > at {
		i--
	}
	if int(sp.n) == len(sp.tr) {
		sp.trunc++
		if i == len(sp.tr) {
			return
		}
		sp.n--
	}
	copy(sp.tr[i+1:sp.n+1], sp.tr[i:sp.n])
	sp.tr[i] = transition{at: at, stage: st}
	sp.n++
}

// Finish closes the span at the current instant, aggregates its per-stage
// durations, retains the raw record for export (up to MaxRetained), and
// recycles the span slot.
func (t *Tracer) Finish(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	sp := t.lookup(id)
	if sp == nil {
		return
	}
	end := t.k.Now()
	for sp.n > 0 && sp.tr[sp.n-1].at > end {
		sp.n-- // stamped ahead for an instant the span did not live to
	}
	total := end.Sub(sp.start)
	t.finished++
	if sp.trunc > 0 {
		t.truncated++
	}
	t.e2eSum += total
	t.e2e.Observe(total.Micros())
	if sp.n == 0 {
		// Nothing attributed; keep the sum-of-stages identity anyway.
		t.stageSum[StageOther] += total
		t.stageCount[StageOther]++
		t.stageHist[StageOther].Observe(total.Micros())
	}
	for i := 0; i < int(sp.n); i++ {
		// Stage i runs from its transition (the span start for the first,
		// absorbing any leading gap) to the next transition or span end,
		// so per-span stage durations sum to the end-to-end latency
		// exactly, truncation or not.
		d := t.stageSpan(sp, i, end)
		st := sp.tr[i].stage
		t.stageSum[st] += d
		t.stageCount[st]++
		t.stageHist[st].Observe(d.Micros())
	}
	if t.onStage != nil {
		// Replay the attribution for the observer in a second pass, so the
		// common no-observer case costs one branch per span, not per stage.
		if sp.n == 0 {
			t.onStage(int(StageOther), total.Micros())
		}
		for i := 0; i < int(sp.n); i++ {
			t.onStage(int(sp.tr[i].stage), t.stageSpan(sp, i, end).Micros())
		}
	}
	if len(t.retained) < t.maxRetain {
		t.retained = append(t.retained, retainedSpan{
			slot:  uint32(id) - 1,
			kind:  sp.kind,
			addr:  sp.addr,
			start: sp.start,
			end:   end,
			tr:    append([]transition(nil), sp.tr[:sp.n]...),
		})
	} else {
		t.droppedSpans++
	}
	sp.live = false
	t.free = append(t.free, uint32(id)-1)
}

// stageSpan returns the duration of the span's i-th attributed stage:
// from its transition (the span start for the first, absorbing any
// leading gap) to the next transition or the span end.
func (t *Tracer) stageSpan(sp *span, i int, end sim.Time) sim.Duration {
	from := sp.tr[i].at
	if i == 0 {
		from = sp.start
	}
	to := end
	if i+1 < int(sp.n) {
		to = sp.tr[i+1].at
	}
	return to.Sub(from)
}

// Instant records a point event (e.g. an LLC eviction) for the Chrome
// trace. Bounded by MaxRetained; overflow is counted and dropped.
func (t *Tracer) Instant(name string, addr uint64) {
	if t == nil {
		return
	}
	if len(t.instants) >= t.maxRetain {
		t.droppedInst++
		return
	}
	t.instants = append(t.instants, instantEvent{name: name, addr: addr, at: t.k.Now()})
}

// Started returns spans opened (post-sampling).
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.started
}

// Finished returns spans closed and aggregated.
func (t *Tracer) Finished() uint64 {
	if t == nil {
		return 0
	}
	return t.finished
}

// Live returns spans currently in flight.
func (t *Tracer) Live() uint64 {
	if t == nil {
		return 0
	}
	return t.started - t.finished
}

// Skipped returns transactions sampled out.
func (t *Tracer) Skipped() uint64 {
	if t == nil {
		return 0
	}
	return t.skipped
}

// Truncated returns finished spans that overflowed their transition
// budget (their tail time is attributed to the last recorded stage).
func (t *Tracer) Truncated() uint64 {
	if t == nil {
		return 0
	}
	return t.truncated
}

// Retained returns raw spans available for Chrome-trace export.
func (t *Tracer) Retained() int {
	if t == nil {
		return 0
	}
	return len(t.retained)
}

// EndToEnd returns the end-to-end latency histogram (microseconds).
func (t *Tracer) EndToEnd() *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.e2e
}

// StageHist returns the per-occurrence duration histogram of one stage
// (microseconds).
func (t *Tracer) StageHist(st Stage) *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.stageHist[st]
}

// StageMeanUs returns the stage's mean contribution per finished span, in
// microseconds. Averaging over all finished spans (not just the spans
// that visited the stage) makes the per-stage means sum to the
// end-to-end mean exactly.
func (t *Tracer) StageMeanUs(st Stage) float64 {
	if t == nil || t.finished == 0 {
		return 0
	}
	return t.stageSum[st].Micros() / float64(t.finished)
}

// EndToEndMeanUs returns the mean end-to-end span latency in
// microseconds.
func (t *Tracer) EndToEndMeanUs() float64 {
	if t == nil || t.finished == 0 {
		return 0
	}
	return t.e2eSum.Micros() / float64(t.finished)
}

// BreakdownRow is one stage of the critical-path decomposition.
type BreakdownRow struct {
	Stage Stage
	// Count is how many stage occurrences were recorded (>= Finished when
	// retransmissions revisit a stage).
	Count uint64
	// MeanUs is the stage's mean contribution per finished span; the
	// column sums to the end-to-end mean exactly.
	MeanUs float64
	// P99Us is the per-occurrence 99th-percentile duration.
	P99Us float64
	// SharePct is MeanUs as a percentage of the end-to-end mean.
	SharePct float64
}

// Breakdown returns the per-stage decomposition in pipeline order,
// omitting stages never visited.
func (t *Tracer) Breakdown() []BreakdownRow {
	if t == nil || t.finished == 0 {
		return nil
	}
	e2e := t.EndToEndMeanUs()
	var rows []BreakdownRow
	for st := Stage(0); st < NumStages; st++ {
		if t.stageCount[st] == 0 {
			continue
		}
		mean := t.StageMeanUs(st)
		share := 0.0
		if e2e > 0 {
			share = 100 * mean / e2e
		}
		rows = append(rows, BreakdownRow{
			Stage:    st,
			Count:    t.stageCount[st],
			MeanUs:   mean,
			P99Us:    t.stageHist[st].Quantile(0.99),
			SharePct: share,
		})
	}
	return rows
}

// BreakdownTable renders the decomposition (plus an end_to_end summary
// row) as a metrics table.
func (t *Tracer) BreakdownTable(title string) *metrics.Table {
	tbl := &metrics.Table{
		Title:   title,
		Columns: []string{"stage", "count", "mean (us)", "p99 (us)", "share (%)"},
	}
	if t == nil {
		return tbl
	}
	for _, r := range t.Breakdown() {
		tbl.AddRow(r.Stage.String(),
			fmt.Sprintf("%d", r.Count),
			fmt.Sprintf("%.4f", r.MeanUs),
			fmt.Sprintf("%.4f", r.P99Us),
			fmt.Sprintf("%.1f", r.SharePct))
	}
	tbl.AddRow("end_to_end",
		fmt.Sprintf("%d", t.finished),
		fmt.Sprintf("%.4f", t.EndToEndMeanUs()),
		fmt.Sprintf("%.4f", t.e2e.Quantile(0.99)),
		"100.0")
	return tbl
}
