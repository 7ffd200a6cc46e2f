// Scheduled chaos campaigns: lender fault domains (crash/restore,
// brownout), burst-error windows, deadline-bounded transactions, and the
// circuit breaker, driven by a declarative inject.Schedule and audited
// end to end. Where the randomized chaos harness (chaos.go) asks "does
// the recovery stack survive an adversarial mix", the scheduled campaign
// asks the robustness questions the paper's prototype cannot: what is the
// blast radius of a lender crash, how fast does the breaker fail over and
// re-promote, and does every transaction still complete exactly once.
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
	"thymesim/internal/workloads/latmem"
	"thymesim/internal/workloads/stream"
)

// ChaosScheduleConfig parameterizes one scheduled chaos campaign.
type ChaosScheduleConfig struct {
	// Seed drives the burst-error chain, ARQ jitter, and supervisor jitter.
	Seed uint64
	// Period is the inner delay-injection PERIOD (1 = vanilla timing).
	Period int64
	// Schedule is the declarative fault-event list replayed against the
	// testbed.
	Schedule inject.Schedule
	// Burst parameterizes the Gilbert–Elliott burst-error chain; it is
	// stacked onto the egress gate whenever the schedule opens burst
	// windows (and left out otherwise, keeping the datapath untouched).
	Burst inject.GilbertElliottConfig
	// ARQ parameterizes the retransmission layer (always on: a crashed
	// lender black-holes requests, and without ARQ those are hangs).
	ARQ tfnic.ARQConfig
	// Supervisor parameterizes heartbeat supervision and re-attach.
	Supervisor control.SupervisorConfig
	// Breaker parameterizes the circuit breaker fed by fill outcomes.
	Breaker control.BreakerConfig
	// Deadline bounds every borrower-port transaction end to end; it must
	// be positive — an unbounded transaction under a crashed lender is a
	// hang, and the breaker would starve for outcomes.
	Deadline sim.Duration
	// MaxPoisonedFrac bounds the fraction of transactions that may
	// complete poisoned before the audit flags the campaign (the breaker's
	// fast-fail should keep the damage well below it).
	MaxPoisonedFrac float64
}

// DefaultChaosScheduleConfig is a full campaign: a 400us lender crash with
// window wipe, then a burst-error window, then a brownout ramp.
func DefaultChaosScheduleConfig() ChaosScheduleConfig {
	arq := tfnic.DefaultARQConfig()
	arq.Timeout = 30 * sim.Microsecond
	arq.MaxRetries = 6
	sup := control.DefaultSupervisorConfig()
	// Retry re-attach for as long as the outage lasts: the campaign
	// restores the lender, so a dead declaration would be premature. The
	// attach watchdog must be much shorter than the outage — an attach
	// started mid-crash stalls on a black-holed probe until the watchdog
	// fires, and only the next attempt can re-arm the wiped window.
	sup.MaxReattach = 0
	sup.Attach.Timeout = 200 * sim.Microsecond
	sup.ReattachPause = 50 * sim.Microsecond
	sup.ReattachCap = 200 * sim.Microsecond
	return ChaosScheduleConfig{
		Seed:   1,
		Period: 1,
		Schedule: inject.Schedule{
			{At: sim.Time(200 * sim.Microsecond), Op: inject.OpLenderCrash},
			{At: sim.Time(600 * sim.Microsecond), Op: inject.OpLenderRestore, Wipe: true},
			{At: sim.Time(900 * sim.Microsecond), Op: inject.OpBurstStart},
			{At: sim.Time(1000 * sim.Microsecond), Op: inject.OpBurstEnd},
			{At: sim.Time(1100 * sim.Microsecond), Op: inject.OpBrownout, Factor: 4},
			{At: sim.Time(1300 * sim.Microsecond), Op: inject.OpBrownout, Factor: 1},
		},
		Burst:           inject.DefaultGilbertElliottConfig(),
		ARQ:             arq,
		Supervisor:      sup,
		Breaker:         control.DefaultBreakerConfig(),
		Deadline:        25 * sim.Microsecond,
		MaxPoisonedFrac: 0.5,
	}
}

// Validate checks the configuration.
func (c ChaosScheduleConfig) Validate() error {
	if c.Period < 1 {
		return fmt.Errorf("core: schedule PERIOD %d", c.Period)
	}
	if len(c.Schedule) == 0 {
		return fmt.Errorf("core: empty fault schedule")
	}
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	if c.Schedule.NeedsBurstGate() {
		if err := c.Burst.Validate(); err != nil {
			return err
		}
	}
	if err := c.ARQ.Validate(); err != nil {
		return err
	}
	if err := c.Supervisor.Validate(); err != nil {
		return err
	}
	if err := c.Breaker.Validate(); err != nil {
		return err
	}
	if c.Deadline <= 0 {
		return fmt.Errorf("core: schedule campaign needs a positive Deadline, got %v", c.Deadline)
	}
	if c.MaxPoisonedFrac <= 0 || c.MaxPoisonedFrac > 1 {
		return fmt.Errorf("core: MaxPoisonedFrac %g outside (0,1]", c.MaxPoisonedFrac)
	}
	return nil
}

// scheduleTarget adapts the testbed plus the campaign's burst gate to
// inject.FaultTarget (the gate lives outside the testbed, so neither
// satisfies the interface alone).
type scheduleTarget struct {
	tb *cluster.Testbed
	ge *inject.GilbertElliottGate
}

func (t scheduleTarget) CrashLender()                     { t.tb.CrashLender() }
func (t scheduleTarget) RestoreLender(wipe bool)          { t.tb.RestoreLender(wipe) }
func (t scheduleTarget) SetLenderSlowdown(factor float64) { t.tb.SetLenderSlowdown(factor) }
func (t scheduleTarget) ForceBurstErrors(active bool) {
	if t.ge == nil {
		panic("core: schedule forces burst errors without a burst gate")
	}
	t.ge.Force(active)
}

// ChaosScheduleResult is one campaign's outcome.
type ChaosScheduleResult struct {
	Completed bool
	ElapsedUs float64
	// Transaction accounting.
	Fills, Poisoned, Expired uint64
	PoisonedFrac             float64
	// Lender fault-domain activity.
	CrashDrops, ServesLost, WipeNacks uint64
	// Burst-error activity (zero without burst windows).
	Bursts, BadBeats, Corrupted uint64
	// Recovery-stack activity.
	Retransmits, Dead, Downs, Recoveries uint64
	// Breaker activity.
	Trips, Reopens, Closes, ShortCircuited uint64
	GateLocalized                          uint64
	FinalBreaker                           string
	Transitions                            []control.BreakerTransition
	// RecoveryUs is the lender-restore-to-breaker-reclose latency: how
	// long after service returned the remote path was re-promoted.
	RecoveryUs float64
	// TripUs is the crash-to-trip latency: how long poisoned fills
	// accumulated before the breaker started fast-failing.
	TripUs float64
	// Violations lists failed invariants (empty = campaign passed).
	Violations []string
}

// runChaosSchedule executes one campaign: a latency-sensitive pointer
// chase behind the migrator+breaker (the protected consumer) and a STREAM
// kernel on the raw remote path (the traffic that keeps feeding the
// breaker outcomes), with the fault schedule replayed against the lender.
func (o Options) runChaosSchedule(cfg ChaosScheduleConfig) (*ChaosScheduleResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var gate axis.Gate = inject.NewPeriodGate(cfg.Period, inject.DefaultFPGACycle)
	var ge *inject.GilbertElliottGate
	if cfg.Schedule.NeedsBurstGate() {
		rng := sim.NewRand(cfg.Seed ^ 0x6EB5)
		ge = inject.NewGilbertElliottGate(gate, cfg.Burst, rng.Split())
		gate = ge
	}
	ccfg := o.TestbedConfig(0)
	ccfg.Period = 0
	ccfg.Gate = gate
	arq := cfg.ARQ
	ccfg.ARQ = &arq
	ccfg.FillDeadline = cfg.Deadline
	tb := cluster.NewTestbed(ccfg)

	sup, err := control.NewSupervisorChecked(tb, cfg.Supervisor)
	if err != nil {
		return nil, err
	}
	brk, err := control.NewBreaker(tb.K, cfg.Breaker)
	if err != nil {
		return nil, err
	}
	tb.SetFillOutcomeObserver(brk.Record)

	mig := migrate.New(tb.K, tb.RemoteBackend(), memport.NewDRAMBackend(tb.BorrowerMem),
		migrate.DefaultConfig(0x40_0000_0000))
	mig.SetRemoteGate(brk)
	o.collectBreaker(tb.K, brk)
	o.collectMigrator(tb.K, mig)
	sup.OnStateChange = func(_, to control.LinkState) {
		if to == control.LinkDead {
			mig.Degrade()
		}
	}

	if err := inject.ScheduleFaults(tb.K, scheduleTarget{tb: tb, ge: ge}, cfg.Schedule); err != nil {
		return nil, err
	}

	// The campaign finishes when both the protected chase and the raw
	// STREAM traffic complete.
	res := &ChaosScheduleResult{}
	remaining := 2
	var doneAt sim.Time
	finish := func() {
		remaining--
		if remaining > 0 {
			return
		}
		res.Completed = true
		doneAt = tb.K.Now()
		sup.Stop()
	}

	tb.K.At(0, func() {
		sup.Start()

		// Protected consumer: pointer chase through migrator + breaker.
		h := memport.NewHierarchy(tb.K, cache.New(ccfg.LLC), mig, ccfg.MSHRs)
		lcfg := latmem.DefaultConfig(tb.RemoteAddr(0))
		lcfg.BufferBytes = 256 << 10
		lcfg.Hops = 8 * lcfg.BufferBytes / 128
		latmem.New(tb.K, h, lcfg).Run(func(latmem.Result) { finish() })

		// Raw remote traffic: STREAM against a disjoint window region,
		// sized to span the whole schedule so the breaker keeps seeing
		// outcomes through every fault phase.
		scfg := stream.DefaultConfig(tb.RemoteAddr(1 << 30))
		scfg.Elements = o.StreamElements
		scfg.Iterations = 1 + (8<<20)/(80*o.StreamElements)
		stream.New(tb.K, tb.NewRemoteHierarchy(), scfg).Run(func([]stream.Result) { finish() })
	})
	tb.K.Run()

	b := tb.RemoteBackend()
	st := tb.ARQ.Stats()
	ls := tb.LenderNIC.Stats()
	bs := brk.Stats()
	ss := sup.Stats()
	res.ElapsedUs = doneAt.Micros()
	res.Fills = b.Reads() + b.Writes()
	res.Poisoned = b.Poisoned()
	res.Expired = b.Expired()
	if res.Fills > 0 {
		res.PoisonedFrac = float64(res.Poisoned) / float64(res.Fills)
	}
	res.CrashDrops, res.ServesLost, res.WipeNacks = ls.CrashDrops, ls.ServesLost, ls.WipeNacks
	if ge != nil {
		res.Bursts, res.BadBeats, res.Corrupted = ge.Bursts(), ge.BadBeats(), ge.Corrupted()
	}
	res.Retransmits, res.Dead = st.Retransmits, st.Dead
	res.Downs, res.Recoveries = ss.Downs, ss.Recoveries
	res.Trips, res.Reopens, res.Closes = bs.Trips, bs.Reopens, bs.Closes
	res.ShortCircuited = bs.ShortCircuited
	res.GateLocalized = mig.Stats().GateLocalized
	res.FinalBreaker = brk.State().String()
	res.Transitions = brk.Transitions()

	o.auditChaosSchedule(cfg, tb, brk, res)
	if len(res.Violations) > 0 {
		o.Metrics.DumpOnAuditFailure("chaos-schedule", res.Violations)
	}
	return res, nil
}

// auditChaosSchedule checks the campaign invariants.
func (o Options) auditChaosSchedule(cfg ChaosScheduleConfig, tb *cluster.Testbed, brk *control.Breaker, res *ChaosScheduleResult) {
	viol := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	if !res.Completed {
		viol("campaign did not complete")
	}
	res.Violations = append(res.Violations, tb.Pool().Audit()...)
	// Bounded blast radius.
	if res.PoisonedFrac > cfg.MaxPoisonedFrac {
		viol("poisoned fraction %.3f exceeds bound %.3f", res.PoisonedFrac, cfg.MaxPoisonedFrac)
	}
	// Breaker transition legality: the log must chain from Closed through
	// legal edges only.
	prev := control.BreakerClosed
	for i, tr := range res.Transitions {
		if tr.From != prev {
			viol("breaker transition %d starts at %v, expected %v", i, tr.From, prev)
		}
		if !control.ValidBreakerTransition(tr.From, tr.To) {
			viol("breaker transition %d illegal: %v -> %v", i, tr.From, tr.To)
		}
		prev = tr.To
	}
	if brk.State() != prev {
		viol("breaker state %v disagrees with transition log end %v", brk.State(), prev)
	}

	// Recovery measurement: a campaign with a crash must trip the breaker
	// and re-promote after the restore.
	var crashAt, restoreAt sim.Time
	haveCrash := false
	for _, ev := range cfg.Schedule {
		switch ev.Op {
		case inject.OpLenderCrash:
			if !haveCrash {
				crashAt, haveCrash = ev.At, true
			}
		case inject.OpLenderRestore:
			if haveCrash && restoreAt == 0 {
				restoreAt = ev.At
			}
		}
	}
	if haveCrash {
		tripAt, closedAt := sim.Time(0), sim.Time(0)
		for _, tr := range res.Transitions {
			if tripAt == 0 && tr.To == control.BreakerOpen && tr.At >= crashAt {
				tripAt = tr.At
			}
			if closedAt == 0 && tr.To == control.BreakerClosed && tr.At >= restoreAt {
				closedAt = tr.At
			}
		}
		if tripAt == 0 {
			viol("lender crash at %v never tripped the breaker", crashAt)
		} else {
			res.TripUs = tripAt.Sub(crashAt).Micros()
		}
		if closedAt == 0 {
			viol("breaker never re-closed after the restore at %v", restoreAt)
		} else {
			res.RecoveryUs = closedAt.Sub(restoreAt).Micros()
		}
		if res.Completed && res.FinalBreaker != control.BreakerClosed.String() {
			viol("campaign ended with breaker %s, expected closed", res.FinalBreaker)
		}
	}
}

// ChaosScheduleReport is the campaign result plus its renderings.
type ChaosScheduleReport struct {
	Config ChaosScheduleConfig
	Result *ChaosScheduleResult
	// Events tabulates the schedule itself (chaos_schedule_table.csv).
	Events *metrics.Table
	Table  *metrics.Table
}

// OK reports whether the campaign completed with all invariants held.
func (r *ChaosScheduleReport) OK() bool {
	return r.Result != nil && r.Result.Completed && len(r.Result.Violations) == 0
}

// RunChaosSchedule executes the scheduled chaos campaign and audits it.
func (o Options) RunChaosSchedule(cfg ChaosScheduleConfig) (*ChaosScheduleReport, error) {
	res, err := o.runChaosSchedule(cfg)
	if err != nil {
		return nil, err
	}
	rep := &ChaosScheduleReport{Config: cfg, Result: res}
	rep.Events = &metrics.Table{
		Title:   "Chaos schedule: injected fault events",
		Columns: []string{"at_us", "op", "factor", "wipe"},
	}
	for _, ev := range cfg.Schedule {
		rep.Events.AddRow(
			fmt.Sprintf("%g", ev.At.Micros()),
			ev.Op.String(),
			fmt.Sprintf("%g", ev.Factor),
			fmt.Sprintf("%t", ev.Wipe))
	}
	rep.Table = &metrics.Table{
		Title: "Scheduled chaos campaign: lender faults vs deadline+breaker",
		Columns: []string{"completed", "fills", "poisoned", "expired", "trips",
			"reopens", "short_circuited", "localized", "trip_us", "recovery_us", "violations"},
	}
	rep.Table.AddRow(
		fmt.Sprintf("%t", res.Completed),
		fmt.Sprintf("%d", res.Fills),
		fmt.Sprintf("%d", res.Poisoned),
		fmt.Sprintf("%d", res.Expired),
		fmt.Sprintf("%d", res.Trips),
		fmt.Sprintf("%d", res.Reopens),
		fmt.Sprintf("%d", res.ShortCircuited),
		fmt.Sprintf("%d", res.GateLocalized),
		fmt.Sprintf("%.1f", res.TripUs),
		fmt.Sprintf("%.1f", res.RecoveryUs),
		strings.Join(res.Violations, "; "))
	return rep, nil
}

// BreakerRecoveryPoint is one outage duration of the breaker-recovery
// sweep.
type BreakerRecoveryPoint struct {
	// OutageUs is the lender crash duration.
	OutageUs float64
	// Wipe marks outages that also lose the lender's window state.
	Wipe      bool
	Completed bool
	// TripUs and RecoveryUs are crash-to-trip and restore-to-reclose.
	TripUs, RecoveryUs float64
	// DwellUs is the breaker's final open dwell (hysteresis footprint).
	Expired, Poisoned, ShortCircuited, GateLocalized uint64
	Trips, Reopens                                   uint64
	Violations                                       int
}

// BreakerRecovery holds the fig_breaker_recovery sweep: breaker failover
// and re-promotion latency vs lender outage duration.
type BreakerRecovery struct {
	Points []BreakerRecoveryPoint
	Figure *metrics.Figure
}

// RunBreakerRecovery sweeps lender outage durations and measures how fast
// the breaker trips (fails over to the local path) and how fast it
// re-promotes the remote path after the restore.
func (o Options) RunBreakerRecovery() (*BreakerRecovery, error) {
	outages := []sim.Duration{
		100 * sim.Microsecond,
		200 * sim.Microsecond,
		400 * sim.Microsecond,
		800 * sim.Microsecond,
	}
	base := DefaultChaosScheduleConfig()
	if err := base.Validate(); err != nil {
		return nil, err
	}
	type outcome struct {
		pt  BreakerRecoveryPoint
		err error
	}
	outs := sweep.Map(o.Workers, len(outages), nil, func(i int) outcome {
		const crashAt = 200 * sim.Microsecond
		cfg := base
		cfg.Seed = o.Seed
		wipe := i%2 == 1 // alternate clean restores with window wipes
		cfg.Schedule = inject.Schedule{
			{At: sim.Time(crashAt), Op: inject.OpLenderCrash},
			{At: sim.Time(crashAt + outages[i]), Op: inject.OpLenderRestore, Wipe: wipe},
		}
		res, err := o.runChaosSchedule(cfg)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{pt: BreakerRecoveryPoint{
			OutageUs:       outages[i].Micros(),
			Wipe:           wipe,
			Completed:      res.Completed,
			TripUs:         res.TripUs,
			RecoveryUs:     res.RecoveryUs,
			Expired:        res.Expired,
			Poisoned:       res.Poisoned,
			ShortCircuited: res.ShortCircuited,
			GateLocalized:  res.GateLocalized,
			Trips:          res.Trips,
			Reopens:        res.Reopens,
			Violations:     len(res.Violations),
		}}
	})
	br := &BreakerRecovery{
		Figure: &metrics.Figure{
			Title:  "Breaker recovery: failover/re-promotion vs lender outage",
			XLabel: "outage (us)",
			YLabel: "latency (us)",
		},
	}
	trip := br.Figure.AddSeries("trip")
	rec := br.Figure.AddSeries("recovery")
	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		br.Points = append(br.Points, out.pt)
		trip.Add(out.pt.OutageUs, out.pt.TripUs)
		rec.Add(out.pt.OutageUs, out.pt.RecoveryUs)
	}
	return br, nil
}
