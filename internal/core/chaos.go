// Chaos harness: randomized link-fault sequences against the paper's three
// workloads with the full recovery stack active (ARQ retransmission, link
// supervision, re-attach, degraded mode), plus the resilience-recovery
// sweep behind results/fig_resilience_recovery.csv. Every random decision
// derives from the configured seed, so a chaos run is a reproducible
// experiment, not a flake generator: the same seed gives the same fault
// schedule, the same retransmissions, and the same counters.
package core

import (
	"fmt"
	"strings"

	"thymesim/internal/axis"
	"thymesim/internal/cache"
	"thymesim/internal/cluster"
	"thymesim/internal/control"
	"thymesim/internal/inject"
	"thymesim/internal/memport"
	"thymesim/internal/metrics"
	"thymesim/internal/migrate"
	"thymesim/internal/sim"
	"thymesim/internal/sweep"
	"thymesim/internal/tfnic"
	"thymesim/internal/workloads/graph500"
	"thymesim/internal/workloads/kvstore"
	"thymesim/internal/workloads/latmem"
	"thymesim/internal/workloads/stream"
)

// ChaosWorkloads are the workloads the chaos runner can drive.
var ChaosWorkloads = []string{"stream", "kvstore", "graph500"}

// ChaosFaults is one fault mix applied at the borrower egress, composed
// over the Eq. (1) delay grid: silent loss, bit corruption, and link
// flapping, each independently optional.
type ChaosFaults struct {
	// BER is the per-bit corruption probability (0 disables).
	BER float64
	// DropProb silently discards each egress beat with this probability.
	DropProb float64
	// FlapMeanUp/FlapMeanDown, when both positive, run a link-flap renewal
	// process with exponentially distributed phase durations.
	FlapMeanUp   sim.Duration
	FlapMeanDown sim.Duration
}

func (f ChaosFaults) flapping() bool { return f.FlapMeanUp > 0 && f.FlapMeanDown > 0 }

// Enabled reports whether any fault model is active.
func (f ChaosFaults) Enabled() bool { return f.BER > 0 || f.DropProb > 0 || f.flapping() }

// Validate checks the fault mix.
func (f ChaosFaults) Validate() error {
	if f.BER < 0 || f.BER >= 1 {
		return fmt.Errorf("core: chaos BER %g outside [0,1)", f.BER)
	}
	if f.DropProb < 0 || f.DropProb >= 1 {
		return fmt.Errorf("core: chaos drop probability %g outside [0,1)", f.DropProb)
	}
	if (f.FlapMeanUp > 0) != (f.FlapMeanDown > 0) {
		return fmt.Errorf("core: flap needs both phase means (up %v, down %v)", f.FlapMeanUp, f.FlapMeanDown)
	}
	return nil
}

// DefaultChaosFaults is a hostile but survivable mix: ~2% loss, a BER that
// corrupts a few percent of packets, and ~100us flaps every couple of
// milliseconds.
func DefaultChaosFaults() ChaosFaults {
	return ChaosFaults{
		BER:          1e-5,
		DropProb:     0.02,
		FlapMeanUp:   2 * sim.Millisecond,
		FlapMeanDown: 100 * sim.Microsecond,
	}
}

// ChaosConfig parameterizes one chaos campaign.
type ChaosConfig struct {
	// Seed drives every fault draw, backoff jitter, and flap schedule.
	Seed uint64
	// Period is the inner delay-injection PERIOD (1 = vanilla timing).
	Period int64
	// Faults is the fault mix layered over the delay gate.
	Faults ChaosFaults
	// ARQ parameterizes the retransmission layer (always on in chaos runs —
	// without it a dropped request is an unrecoverable hang).
	ARQ tfnic.ARQConfig
	// Supervisor parameterizes heartbeat link supervision and re-attach.
	Supervisor control.SupervisorConfig
	// Workloads selects which workloads to run (subset of ChaosWorkloads).
	Workloads []string
}

// DefaultChaosConfig runs all three workloads under the default fault mix.
func DefaultChaosConfig() ChaosConfig {
	arq := tfnic.DefaultARQConfig()
	// Snappier than the standalone default so chaos runs stay short: the
	// testbed RTT is ~2us, so 30us already clears a heavily queued link.
	arq.Timeout = 30 * sim.Microsecond
	arq.MaxRetries = 8
	return ChaosConfig{
		Seed:       1,
		Period:     1,
		Faults:     DefaultChaosFaults(),
		ARQ:        arq,
		Supervisor: control.DefaultSupervisorConfig(),
		Workloads:  ChaosWorkloads,
	}
}

// Validate checks the configuration.
func (c ChaosConfig) Validate() error {
	if c.Period < 1 {
		return fmt.Errorf("core: chaos PERIOD %d", c.Period)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.ARQ.Validate(); err != nil {
		return err
	}
	if err := c.Supervisor.Validate(); err != nil {
		return err
	}
	if len(c.Workloads) == 0 {
		return fmt.Errorf("core: no chaos workloads")
	}
	for _, w := range c.Workloads {
		known := false
		for _, k := range ChaosWorkloads {
			known = known || w == k
		}
		if !known {
			return fmt.Errorf("core: unknown chaos workload %q", w)
		}
	}
	return nil
}

// chaosGates holds the composed fault stack for counter readout.
type chaosGates struct {
	drop *inject.DropGate
	bits *inject.BitErrorGate
	flap *inject.FlapGate
}

func (g *chaosGates) dropped() uint64 {
	if g.drop == nil {
		return 0
	}
	return g.drop.Dropped()
}

func (g *chaosGates) corrupted() uint64 {
	if g.bits == nil {
		return 0
	}
	return g.bits.Corrupted()
}

func (g *chaosGates) flapBlocked() uint64 {
	if g.flap == nil {
		return 0
	}
	return g.flap.Blocked()
}

// chaosTestbed builds a testbed whose egress gate stacks the fault mix
// over the PERIOD grid (flap outermost so outages also stall retransmitted
// beats, then corruption over loss so a dropped beat is never also
// corrupted), with the ARQ layer interposed.
func (o Options) chaosTestbed(cfg ChaosConfig) (*cluster.Testbed, *chaosGates) {
	rng := sim.NewRand(cfg.Seed ^ 0xC4A05)
	var gate axis.Gate = inject.NewPeriodGate(cfg.Period, inject.DefaultFPGACycle)
	gs := &chaosGates{}
	if cfg.Faults.DropProb > 0 {
		gs.drop = inject.NewDropGate(gate, cfg.Faults.DropProb, rng.Split())
		gate = gs.drop
	}
	if cfg.Faults.BER > 0 {
		gs.bits = inject.NewBitErrorGate(gate, cfg.Faults.BER, rng.Split())
		gate = gs.bits
	}
	if cfg.Faults.flapping() {
		gs.flap = inject.NewFlapGate(gate,
			inject.Exponential{MeanD: cfg.Faults.FlapMeanUp},
			inject.Exponential{MeanD: cfg.Faults.FlapMeanDown},
			rng.Split())
		gate = gs.flap
	}
	ccfg := o.TestbedConfig(0)
	ccfg.Period = 0
	ccfg.Gate = gate
	arq := cfg.ARQ
	ccfg.ARQ = &arq
	return cluster.NewTestbed(ccfg), gs
}

// ChaosResult is one workload's outcome under one fault schedule.
type ChaosResult struct {
	Workload  string
	Completed bool
	ElapsedUs float64
	// Fault activity at the egress.
	Dropped, Corrupted, FlapBlocked uint64
	// Recovery activity.
	Retransmits, Timeouts, NackRetries, Dead, Poisoned uint64
	Downs, Recoveries                                  uint64
	MeanRecoveryUs                                     float64
	FinalLink                                          string
	// Violations lists failed end-to-end invariants (empty = run passed).
	Violations []string
}

// chaosCounterNames fixes the row order of the aggregate counter table
// (chaos_counters.csv); counters returns one result's values in it.
var chaosCounterNames = []string{
	"gate_dropped", "gate_corrupted", "flap_blocked",
	"arq_retransmits", "arq_timeouts", "arq_nack_retries", "arq_dead",
	"backend_poisoned", "sup_downs", "sup_recoveries",
}

func (r ChaosResult) counters() []uint64 {
	return []uint64{
		r.Dropped, r.Corrupted, r.FlapBlocked,
		r.Retransmits, r.Timeouts, r.NackRetries, r.Dead,
		r.Poisoned, r.Downs, r.Recoveries,
	}
}

// runChaosWorkload drives one workload to completion under the fault mix,
// then audits the end-to-end invariants.
func (o Options) runChaosWorkload(cfg ChaosConfig, name string) ChaosResult {
	tb, gs := o.chaosTestbed(cfg)
	return o.runChaosOn(tb, gs, cfg, name)
}

// runChaosOn is runChaosWorkload on a testbed the caller built with
// chaosTestbed.
func (o Options) runChaosOn(tb *cluster.Testbed, gs *chaosGates, cfg ChaosConfig, name string) ChaosResult {
	sup := control.NewSupervisor(tb, cfg.Supervisor)

	done := false
	var doneAt sim.Time
	finish := func() {
		done = true
		doneAt = tb.K.Now()
		sup.Stop()
	}

	tb.K.At(0, func() {
		sup.Start()
		o.launchChaosWorkload(tb, name, finish)
	})
	tb.K.Run()

	res := ChaosResult{
		Workload:       name,
		Completed:      done,
		ElapsedUs:      doneAt.Micros(),
		Dropped:        gs.dropped(),
		Corrupted:      gs.corrupted(),
		FlapBlocked:    gs.flapBlocked(),
		FinalLink:      sup.State().String(),
		MeanRecoveryUs: sup.Stats().MeanRecovery().Micros(),
		Downs:          sup.Stats().Downs,
		Recoveries:     sup.Stats().Recoveries,
	}
	st := tb.ARQ.Stats()
	res.Retransmits, res.Timeouts, res.NackRetries, res.Dead = st.Retransmits, st.Timeouts, st.NackRetries, st.Dead
	res.Poisoned = tb.RemoteBackend().Poisoned()

	if !done {
		res.Violations = append(res.Violations, fmt.Sprintf("workload %s did not complete", name))
	}
	res.Violations = append(res.Violations, tb.Pool().Audit()...)
	// A fault-free run must look exactly like the vanilla datapath.
	if !cfg.Faults.Enabled() && (res.Poisoned != 0 || st.Retransmits != 0 || st.Dead != 0) {
		res.Violations = append(res.Violations, fmt.Sprintf("fault-free run saw recovery activity: %d retransmits, %d poisoned",
			st.Retransmits, res.Poisoned))
	}
	if len(res.Violations) > 0 {
		o.Metrics.DumpOnAuditFailure("chaos-"+name, res.Violations)
	}
	return res
}

// launchChaosWorkload schedules one workload and calls finish on its
// completion callback.
func (o Options) launchChaosWorkload(tb *cluster.Testbed, name string, finish func()) {
	switch name {
	case "stream":
		cfg := stream.DefaultConfig(tb.RemoteAddr(0))
		cfg.Elements = o.StreamElements
		r := stream.New(tb.K, tb.NewRemoteHierarchy(), cfg)
		r.Run(func([]stream.Result) { finish() })
	case "kvstore":
		store := kvstore.NewStore(kvstore.DefaultConfig(tb.RemoteAddr(0)))
		srv := kvstore.NewServer(tb.K, tb.NewRemoteHierarchy(), store, kvstore.DefaultServerConfig())
		kvstore.RunBench(tb.K, srv, o.kvBenchConfig(), func(kvstore.BenchResult) { finish() })
	case "graph500":
		r := graph500.New(tb.K, tb.NewRemoteHierarchy(), o.graphConfig(tb.RemoteAddr(0)))
		r.Run(func(*graph500.RunResult) { finish() })
	default:
		panic(fmt.Sprintf("core: unknown chaos workload %q", name))
	}
}

// ChaosReport is one chaos campaign across the selected workloads.
type ChaosReport struct {
	Results []ChaosResult
	// Counters sums fault/recovery activity over Results, one
	// counter,value row per chaosCounterNames entry.
	Counters *metrics.Table
	Table    *metrics.Table
}

// OK reports whether every workload completed with all invariants held.
func (r *ChaosReport) OK() bool {
	for _, res := range r.Results {
		if !res.Completed || len(res.Violations) > 0 {
			return false
		}
	}
	return len(r.Results) > 0
}

// RunChaos executes the chaos campaign: each selected workload runs to
// completion under the seeded fault schedule, with recovery active and
// invariants audited. An invalid cfg is an error, and nothing runs.
func (o Options) RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rep := &ChaosReport{}
	rep.Table = &metrics.Table{
		Title:   "Chaos harness: workloads under corruption+drop+flap",
		Columns: []string{"workload", "completed", "elapsed (us)", "retransmits", "dead", "poisoned", "downs", "recoveries", "violations"},
	}
	// Each trial owns its testbed, fault gates, and counters; fan the
	// workloads out and aggregate in input order.
	rep.Results = sweep.Map(o.Workers, len(cfg.Workloads), nil, func(i int) ChaosResult {
		return o.runChaosWorkload(cfg, cfg.Workloads[i])
	})
	sums := make([]uint64, len(chaosCounterNames))
	for _, res := range rep.Results {
		for i, v := range res.counters() {
			sums[i] += v
		}
		rep.Table.AddRow(res.Workload,
			fmt.Sprintf("%t", res.Completed),
			fmt.Sprintf("%.1f", res.ElapsedUs),
			fmt.Sprintf("%d", res.Retransmits),
			fmt.Sprintf("%d", res.Dead),
			fmt.Sprintf("%d", res.Poisoned),
			fmt.Sprintf("%d", res.Downs),
			fmt.Sprintf("%d", res.Recoveries),
			strings.Join(res.Violations, "; "))
	}
	rep.Counters = &metrics.Table{Title: "chaos fault/recovery counters", Columns: []string{"counter", "value"}}
	for i, name := range chaosCounterNames {
		rep.Counters.AddRow(name, fmt.Sprintf("%d", sums[i]))
	}
	return rep, nil
}

// DegradedFailover is the dead-link fallback experiment: a pointer chase
// whose link dies mid-run, where the supervisor's dead declaration flips
// the migrator into degraded (local-only) mode instead of letting every
// access die poisoned.
type DegradedFailover struct {
	Completed     bool
	DeadDeclared  bool
	Degraded      bool
	DegradedPages uint64
	LocalAccesses uint64
	Poisoned      uint64
	ElapsedUs     float64
	// Violations lists the pool audit's failed invariants (empty = passed).
	Violations []string
}

// RunDegradedFailover wires Supervisor.OnStateChange to migrate.Degrade:
// the link goes down permanently mid-chase, re-attach exhausts its budget,
// the link is declared dead, and the remaining accesses run against fresh
// local frames — bounded degradation instead of a hang.
func (o Options) RunDegradedFailover() *DegradedFailover {
	const outageStart = 200 * sim.Microsecond
	cfg := o.TestbedConfig(0)
	cfg.Gate = inject.NewOutageGate(
		[]inject.Window{{Start: sim.Time(outageStart), Duration: 50 * sim.Millisecond}},
		inject.DefaultFPGACycle)
	// Fast-failing recovery so the dead declaration lands mid-run.
	arq := tfnic.DefaultARQConfig()
	arq.Timeout = 20 * sim.Microsecond
	arq.MaxRetries = 2
	cfg.ARQ = &arq
	tb := cluster.NewTestbed(cfg)

	scfg := control.DefaultSupervisorConfig()
	scfg.Attach.Timeout = 200 * sim.Microsecond
	scfg.ReattachPause = 50 * sim.Microsecond
	scfg.ReattachCap = 200 * sim.Microsecond
	scfg.MaxReattach = 3
	sup := control.NewSupervisor(tb, scfg)

	mig := migrate.New(tb.K, tb.RemoteBackend(), memport.NewDRAMBackend(tb.BorrowerMem),
		migrate.DefaultConfig(0x40_0000_0000))
	o.collectMigrator(tb.K, mig)
	res := &DegradedFailover{}
	sup.OnStateChange = func(_, to control.LinkState) {
		if to == control.LinkDead {
			res.DeadDeclared = true
			mig.Degrade()
		}
	}

	h := memport.NewHierarchy(tb.K, cache.New(cfg.LLC), mig, cfg.MSHRs)
	ccfg := latmem.DefaultConfig(tb.RemoteAddr(0))
	ccfg.BufferBytes = 256 << 10
	ccfg.Hops = 6 * ccfg.BufferBytes / 128
	chase := latmem.New(tb.K, h, ccfg)
	tb.K.At(0, func() {
		sup.Start()
		chase.Run(func(latmem.Result) {
			res.Completed = true
			res.ElapsedUs = tb.K.Now().Micros()
			sup.Stop()
		})
	})
	tb.K.Run()

	res.Degraded = mig.Degraded()
	res.DegradedPages = mig.Stats().DegradedPages
	res.LocalAccesses = mig.Stats().LocalAccesses
	res.Poisoned = tb.RemoteBackend().Poisoned()
	res.Violations = tb.Pool().Audit()
	if len(res.Violations) > 0 {
		o.Metrics.DumpOnAuditFailure("degraded-failover", res.Violations)
	}
	return res
}

// RecoveryPoint is one scenario of the resilience-recovery sweep.
type RecoveryPoint struct {
	// Scenario is the fault family: drop, ber, or flap.
	Scenario string
	// Level is the fault intensity: drop probability, bit error rate, or
	// mean down-phase duration in microseconds.
	Level float64
	// BandwidthGBs is STREAM's delivered bandwidth under the faults.
	BandwidthGBs float64
	// MeanRecoveryUs is the supervisor's mean down-to-up latency (0 when
	// the link never went down).
	MeanRecoveryUs              float64
	Retransmits, Dead, Poisoned uint64
	Downs, Recoveries           uint64
	// Violations lists the pool audit's failed invariants (empty = passed).
	Violations []string
}

// ResilienceRecovery holds the fig_resilience_recovery sweep: delivered
// bandwidth and recovery latency vs fault intensity, per fault family.
type ResilienceRecovery struct {
	// Baseline is the fault-free bandwidth the sweep normalizes against.
	Baseline RecoveryPoint
	Points   []RecoveryPoint
	Figure   *metrics.Figure
}

// recoveryFaults maps a scenario to its fault mix.
func recoveryFaults(scenario string, level float64) ChaosFaults {
	switch scenario {
	case "drop":
		return ChaosFaults{DropProb: level}
	case "ber":
		return ChaosFaults{BER: level}
	case "flap":
		return ChaosFaults{
			FlapMeanUp:   300 * sim.Microsecond,
			FlapMeanDown: sim.Duration(level * float64(sim.Microsecond)),
		}
	default:
		panic(fmt.Sprintf("core: unknown recovery scenario %q", scenario))
	}
}

// recoveryPoint measures STREAM under one fault mix with supervision on.
func (o Options) recoveryPoint(scenario string, level float64) RecoveryPoint {
	cfg := DefaultChaosConfig()
	cfg.Seed = o.Seed
	cfg.Faults = ChaosFaults{}
	if scenario != "baseline" {
		cfg.Faults = recoveryFaults(scenario, level)
	}
	tb, _ := o.chaosTestbed(cfg)
	sup := control.NewSupervisor(tb, cfg.Supervisor)

	scfg := stream.DefaultConfig(tb.RemoteAddr(0))
	scfg.Elements = o.StreamElements
	// Size the run to a fixed traffic volume (~4 MB) regardless of scale, so
	// it spans several flap cycles and the supervisor has time to detect and
	// re-attach; one iteration moves ~80 bytes per element.
	scfg.Iterations = 1 + (4<<20)/(80*o.StreamElements)
	r := stream.New(tb.K, tb.NewRemoteHierarchy(), scfg)
	var out []stream.Result
	tb.K.At(0, func() {
		sup.Start()
		r.Run(func(res []stream.Result) {
			out = res
			sup.Stop()
		})
	})
	tb.K.Run()

	bw, _ := stream.Summary(out)
	st := tb.ARQ.Stats()
	ss := sup.Stats()
	v := tb.Pool().Audit()
	if len(v) > 0 {
		o.Metrics.DumpOnAuditFailure("recovery-"+scenario, v)
	}
	return RecoveryPoint{
		Scenario:       scenario,
		Level:          level,
		BandwidthGBs:   bw / 1e9,
		MeanRecoveryUs: ss.MeanRecovery().Micros(),
		Retransmits:    st.Retransmits,
		Dead:           st.Dead,
		Poisoned:       tb.RemoteBackend().Poisoned(),
		Downs:          ss.Downs,
		Recoveries:     ss.Recoveries,
		Violations:     v,
	}
}

// RunResilienceRecovery sweeps each fault family over increasing intensity
// and measures what the system still delivers and how fast it recovers —
// the robustness counterpart of Fig. 4's delay-only stress test.
func (o Options) RunResilienceRecovery() *ResilienceRecovery {
	families := []struct {
		scenario string
		levels   []float64
	}{
		{"drop", []float64{0.01, 0.05, 0.1}},
		{"ber", []float64{1e-5, 1e-4, 1e-3}},
		// Mean down-phase microseconds, against a 300us mean up phase.
		{"flap", []float64{50, 100, 200}},
	}
	rr := &ResilienceRecovery{
		Figure: &metrics.Figure{
			Title:  "Resilience & recovery: delivered bandwidth under link faults",
			XLabel: "fault intensity (drop prob / BER / mean down us)",
			YLabel: "bandwidth (GB/s)",
			LogX:   true,
		},
	}
	// Flatten the baseline plus every (scenario, level) pair into one
	// sweep so the whole grid shares the pool.
	type job struct {
		scenario string
		level    float64
	}
	jobs := []job{{"baseline", 0}}
	for _, f := range families {
		for _, level := range f.levels {
			jobs = append(jobs, job{f.scenario, level})
		}
	}
	pts := sweep.Map(o.Workers, len(jobs), nil, func(i int) RecoveryPoint {
		return o.recoveryPoint(jobs[i].scenario, jobs[i].level)
	})
	rr.Baseline = pts[0]
	next := 1
	for _, f := range families {
		series := rr.Figure.AddSeries(f.scenario)
		for range f.levels {
			p := pts[next]
			next++
			rr.Points = append(rr.Points, p)
			series.Add(p.Level, p.BandwidthGBs)
		}
	}
	return rr
}
