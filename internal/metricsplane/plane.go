package metricsplane

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Plane bundles one run's registry, flight recorder, SLO tracking, and
// run status. A nil *Plane disables everything: Collect registers
// nothing, and the push handles it returns are nil or inert.
type Plane struct {
	reg *Registry
	rec *FlightRecorder

	mu       sync.Mutex
	slo      SLOConfig
	fills    map[int]*Histogram // node -> shared-port fill latency, for SLO eval
	run      string
	phase    string
	started  time.Time
	dumpTo   io.Writer
	stageObs map[string]stageHandles
	expDone  *Counter
	expAll   *Gauge
}

type stageHandles struct {
	count *Counter
	sumUs *FloatCounter
}

// New returns an enabled plane with a default-size flight recorder.
func New() *Plane {
	p := &Plane{
		reg:     NewRegistry(),
		rec:     NewFlightRecorder(0),
		slo:     DefaultSLOConfig(),
		fills:   make(map[int]*Histogram),
		started: time.Now(),
		dumpTo:  os.Stderr,
	}
	p.expDone = p.reg.Counter("thymesim_experiments_done_total", "Experiments completed this run.", NewLabels())
	p.expAll = p.reg.Gauge("thymesim_experiments_total", "Experiments planned this run.", NewLabels())
	return p
}

// Registry returns the plane's registry (nil on a nil plane).
func (p *Plane) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Recorder returns the plane's flight recorder (nil on a nil plane).
func (p *Plane) Recorder() *FlightRecorder {
	if p == nil {
		return nil
	}
	return p.rec
}

// Snapshot returns the registry snapshot (nil on a nil plane).
func (p *Plane) Snapshot() []Sample {
	if p == nil {
		return nil
	}
	return p.reg.Snapshot()
}

// SetSLO replaces the SLO targets.
func (p *Plane) SetSLO(cfg SLOConfig) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.slo = cfg
	p.mu.Unlock()
}

// SetRun names the run shown by the status endpoint.
func (p *Plane) SetRun(run string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.run = run
	p.mu.Unlock()
}

// SetPhase updates the status endpoint's current-phase string.
func (p *Plane) SetPhase(phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = phase
	p.mu.Unlock()
}

// SetDumpWriter redirects flight-recorder dumps (default os.Stderr).
func (p *Plane) SetDumpWriter(w io.Writer) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.dumpTo = w
	p.mu.Unlock()
}

// ExperimentsPlanned records how many experiments the run will execute.
func (p *Plane) ExperimentsPlanned(n int) {
	if p != nil {
		p.expAll.Set(float64(n))
	}
}

// ExperimentDone counts a finished experiment.
func (p *Plane) ExperimentDone() {
	if p != nil {
		p.expDone.Inc()
	}
}

// --- push instruments -----------------------------------------------------
//
// Counters and gauges are pulled (see Collect). Only per-event data is
// pushed: the fill-latency histogram, the stage rollups of the span
// tracer, and the flight recorder (RecorderFor).

// FillLatency returns the end-to-end remote-fill latency histogram for a
// borrower's backend. Backends with equal labels share it, so concurrent
// sweep points merge. The node's shared port (tenant "") is the one the
// SLO tracker follows.
func (p *Plane) FillLatency(node int, tenant string) *Histogram {
	if p == nil {
		return nil
	}
	h := p.reg.Histogram("thymesim_fill_latency_us", "End-to-end remote-fill latency in microseconds.", ForNode(node).WithTenant(tenant))
	if tenant == "" {
		p.mu.Lock()
		p.fills[node] = h
		p.mu.Unlock()
	}
	return h
}

// StageObserver resolves the per-stage rollup handles for a node. The
// returned closure is handed to obs.Tracer.SetStageObserver; it indexes
// by stage name into pre-resolved handles, so observing stays lock-free
// and allocation-free.
func (p *Plane) StageObserver(node int, stageNames []string) func(stage int, durUs float64) {
	if p == nil {
		return nil
	}
	counts := make([]*Counter, len(stageNames))
	sums := make([]*FloatCounter, len(stageNames))
	for i, name := range stageNames {
		l := ForNode(node).WithStage(name)
		counts[i] = p.reg.Counter("thymesim_stage_spans_total", "Span visits per datapath stage.", l)
		sums[i] = p.reg.FloatCounter("thymesim_stage_time_us_total", "Summed span time per datapath stage in microseconds.", l)
	}
	return func(stage int, durUs float64) {
		if stage < 0 || stage >= len(counts) {
			return
		}
		counts[stage].Inc()
		sums[stage].Add(durUs)
	}
}

// --- SLO tracking ---------------------------------------------------------

// SLOConfig sets per-borrower targets evaluated at scrape time.
type SLOConfig struct {
	// FillP99Us is the p99 remote-fill latency target in microseconds.
	FillP99Us float64
	// PoisonedBudget is the tolerated poisoned fraction of all fills
	// (the error budget).
	PoisonedBudget float64
}

// DefaultSLOConfig targets p99 <= 500 µs (comfortably above the longest
// paper-sweep delay point) and a 1% poisoned-fill error budget.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{FillP99Us: 500, PoisonedBudget: 0.01}
}

// SLOStatus is one borrower's SLO evaluation.
type SLOStatus struct {
	Node             int     `json:"node"`
	Fills            uint64  `json:"fills"`
	FillP99Us        float64 `json:"fill_p99_us"`
	TargetP99Us      float64 `json:"target_p99_us"`
	LatencyOK        bool    `json:"latency_ok"`
	PoisonedFraction float64 `json:"poisoned_fraction"`
	PoisonedBudget   float64 `json:"poisoned_budget"`
	// BudgetBurn is PoisonedFraction / PoisonedBudget: 1.0 means the
	// error budget is exactly consumed.
	BudgetBurn float64 `json:"budget_burn"`
	BudgetOK   bool    `json:"budget_ok"`
}

// SLO evaluates every tracked borrower against the configured targets,
// sorted by node id.
func (p *Plane) SLO() []SLOStatus {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	cfg := p.slo
	nodes := make([]int, 0, len(p.fills))
	for n := range p.fills {
		nodes = append(nodes, n)
	}
	fills := make([]*Histogram, 0, len(nodes))
	sort.Ints(nodes)
	for _, n := range nodes {
		fills = append(fills, p.fills[n])
	}
	p.mu.Unlock()

	out := make([]SLOStatus, 0, len(fills))
	for i, lat := range fills {
		l := ForNode(nodes[i])
		total := p.reg.counterValue("thymesim_fill_reads_total", l) + p.reg.counterValue("thymesim_fill_writes_total", l)
		st := SLOStatus{
			Node:        nodes[i],
			Fills:       total,
			FillP99Us:   lat.Quantile(0.99),
			TargetP99Us: cfg.FillP99Us,
		}
		st.LatencyOK = st.FillP99Us <= cfg.FillP99Us
		if total > 0 {
			st.PoisonedFraction = float64(p.reg.counterValue("thymesim_fill_poisoned_total", l)) / float64(total)
		}
		st.PoisonedBudget = cfg.PoisonedBudget
		if cfg.PoisonedBudget > 0 {
			st.BudgetBurn = st.PoisonedFraction / cfg.PoisonedBudget
		}
		st.BudgetOK = st.PoisonedFraction <= cfg.PoisonedBudget
		out = append(out, st)
	}
	return out
}

// --- run status + dump ----------------------------------------------------

// RunStatus is the payload of the /status endpoint.
type RunStatus struct {
	Run                string      `json:"run"`
	Phase              string      `json:"phase"`
	UptimeSeconds      float64     `json:"uptime_s"`
	ExperimentsDone    uint64      `json:"experiments_done"`
	ExperimentsPlanned float64     `json:"experiments_planned"`
	RecorderEvents     uint64      `json:"recorder_events"`
	SLO                []SLOStatus `json:"slo"`
}

// Status assembles the current run status.
func (p *Plane) Status() RunStatus {
	if p == nil {
		return RunStatus{}
	}
	p.mu.Lock()
	st := RunStatus{
		Run:           p.run,
		Phase:         p.phase,
		UptimeSeconds: time.Since(p.started).Seconds(),
	}
	p.mu.Unlock()
	st.ExperimentsDone = p.expDone.Value()
	st.ExperimentsPlanned = p.expAll.Value()
	st.RecorderEvents = p.rec.Total()
	st.SLO = p.SLO()
	return st
}

// DumpOnAuditFailure writes the flight recorder and SLO summary to the
// configured dump writer — called by the chaos runners when an
// invariant audit fails, so the last datapath events leading up to the
// violation are preserved.
func (p *Plane) DumpOnAuditFailure(campaign string, violations []string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	w := p.dumpTo
	p.mu.Unlock()
	if w == nil {
		return
	}
	fmt.Fprintf(w, "metricsplane: flight-recorder dump: campaign=%q violations=%d retained_events=%d total_events=%d\n",
		campaign, len(violations), len(p.rec.Events()), p.rec.Total())
	for _, v := range violations {
		fmt.Fprintf(w, "metricsplane: violation: %s\n", v)
	}
	p.rec.WriteNDJSON(w)
	for _, st := range p.SLO() {
		fmt.Fprintf(w, "metricsplane: slo node=%d fills=%d p99=%.1fus(target %.1f ok=%v) poisoned=%.4f(budget %.4f burn=%.2f ok=%v)\n",
			st.Node, st.Fills, st.FillP99Us, st.TargetP99Us, st.LatencyOK,
			st.PoisonedFraction, st.PoisonedBudget, st.BudgetBurn, st.BudgetOK)
	}
}
