package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// chaosOptions shrinks the workloads so a chaos campaign runs in well under
// a second of wall time.
func chaosOptions() Options {
	o := fastOptions()
	o.StreamElements = 1 << 12
	o.GraphScale = 9
	return o
}

// runChaos runs a campaign whose config the test expects to be valid.
func runChaos(t *testing.T, o Options, cfg ChaosConfig) *ChaosReport {
	t.Helper()
	rep, err := o.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// chaosCounter reads one row of the aggregate counter table.
func chaosCounter(t *testing.T, rep *ChaosReport, name string) uint64 {
	t.Helper()
	cell, ok := rep.Counters.Lookup(name, "value")
	if !ok {
		t.Fatalf("counter table has no %q row", name)
	}
	v, err := strconv.ParseUint(cell, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestChaosConfigValidation checks that each invalid config is rejected
// by Validate, and by RunChaos as an error before anything runs.
func TestChaosConfigValidation(t *testing.T) {
	if err := DefaultChaosConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*ChaosConfig){
		func(c *ChaosConfig) { c.Period = 0 },
		func(c *ChaosConfig) { c.Faults.BER = 1 },
		func(c *ChaosConfig) { c.Faults.DropProb = -0.1 },
		func(c *ChaosConfig) { c.Faults.FlapMeanDown = 0 },
		func(c *ChaosConfig) { c.ARQ.Timeout = 0 },
		func(c *ChaosConfig) { c.Supervisor.Heartbeat = 0 },
		func(c *ChaosConfig) { c.Workloads = nil },
		func(c *ChaosConfig) { c.Workloads = []string{"memtier"} },
	}
	for i, mut := range muts {
		cfg := DefaultChaosConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if rep, err := chaosOptions().RunChaos(cfg); err == nil || rep != nil {
			t.Errorf("case %d: RunChaos = (%v, %v), want an error", i, rep, err)
		}
	}
}

func TestChaosAllWorkloadsSurviveFaults(t *testing.T) {
	o := chaosOptions()
	cfg := DefaultChaosConfig()
	rep := runChaos(t, o, cfg)
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	if !rep.OK() {
		for _, r := range rep.Results {
			t.Errorf("%s: completed=%t violations=%v", r.Workload, r.Completed, r.Violations)
		}
		t.Fatal("chaos campaign failed")
	}
	// The fault mix actually fired, and recovery actually worked.
	if chaosCounter(t, rep, "gate_dropped") == 0 {
		t.Error("no drops under the default mix")
	}
	if chaosCounter(t, rep, "gate_corrupted") == 0 {
		t.Error("no corruption under the default mix")
	}
	if chaosCounter(t, rep, "arq_retransmits") == 0 {
		t.Error("no retransmissions despite loss")
	}
	if len(rep.Table.Rows) != 3 {
		t.Errorf("table rows = %d", len(rep.Table.Rows))
	}
}

func TestChaosDeterministicAcrossRuns(t *testing.T) {
	o := chaosOptions()
	cfg := DefaultChaosConfig()
	cfg.Workloads = []string{"stream", "kvstore"}
	a := runChaos(t, o, cfg)
	b := runChaos(t, o, cfg)
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a.Results, b.Results)
	}
	cfg.Seed = 99
	c := runChaos(t, o, cfg)
	if reflect.DeepEqual(a.Results, c.Results) {
		t.Fatal("different seeds produced identical fault schedules")
	}
	if !c.OK() {
		t.Fatalf("seed 99 campaign failed: %+v", c.Results)
	}
}

func TestChaosFaultFreeRunIsClean(t *testing.T) {
	o := chaosOptions()
	cfg := DefaultChaosConfig()
	cfg.Faults = ChaosFaults{}
	cfg.Workloads = []string{"stream"}
	rep := runChaos(t, o, cfg)
	if !rep.OK() {
		t.Fatalf("fault-free run failed: %+v", rep.Results[0].Violations)
	}
	r := rep.Results[0]
	if r.Retransmits != 0 || r.Dead != 0 || r.Poisoned != 0 || r.Dropped != 0 {
		t.Fatalf("fault-free run saw recovery activity: %+v", r)
	}
}

func TestDegradedFailover(t *testing.T) {
	o := chaosOptions()
	r := o.RunDegradedFailover()
	if !r.Completed {
		t.Fatal("chase never completed — dead link back to a hang")
	}
	if !r.DeadDeclared || !r.Degraded {
		t.Fatalf("link not declared dead / migrator not degraded: %+v", r)
	}
	if r.DegradedPages == 0 {
		t.Fatalf("no pages localized after degrade: %+v", r)
	}
	if r.LocalAccesses == 0 {
		t.Fatalf("no local accesses after degrade: %+v", r)
	}
	// Accesses issued while the link was dying died poisoned — visible, not
	// silent.
	if r.Poisoned == 0 {
		t.Fatalf("no poisoned completions before the dead declaration: %+v", r)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("pool audit: %q", r.Violations)
	}
}

func TestResilienceRecoverySweep(t *testing.T) {
	o := chaosOptions()
	rr := o.RunResilienceRecovery()
	if len(rr.Points) != 9 {
		t.Fatalf("points = %d", len(rr.Points))
	}
	if rr.Baseline.BandwidthGBs <= 0 {
		t.Fatalf("baseline bandwidth %v", rr.Baseline.BandwidthGBs)
	}
	for _, p := range append([]RecoveryPoint{rr.Baseline}, rr.Points...) {
		if len(p.Violations) != 0 {
			t.Errorf("%s level %g: pool audit %q", p.Scenario, p.Level, p.Violations)
		}
	}
	// Bandwidth degrades monotonically-ish with fault intensity within each
	// family; assert the endpoints at least.
	for _, fam := range []string{"drop", "ber", "flap"} {
		s := rr.Figure.Get(fam)
		if s == nil || s.Len() != 3 {
			t.Fatalf("series %s missing or short", fam)
		}
		ys := s.Ys()
		if ys[2] >= rr.Baseline.BandwidthGBs {
			t.Errorf("%s at max intensity (%v GB/s) not below baseline (%v)", fam, ys[2], rr.Baseline.BandwidthGBs)
		}
		if ys[2] > ys[0] {
			t.Errorf("%s bandwidth grew with intensity: %v", fam, ys)
		}
	}
	// Flap scenarios exercise detection/recovery.
	var flapDowns uint64
	for _, p := range rr.Points {
		if p.Scenario == "flap" {
			flapDowns += p.Downs
		}
	}
	if flapDowns == 0 {
		t.Error("flap sweep never took the link down")
	}
	var retransmits uint64
	for _, p := range rr.Points {
		retransmits += p.Retransmits
	}
	if retransmits == 0 {
		t.Error("sweep saw no retransmissions")
	}
}

func TestResilienceRecoveryDeterministic(t *testing.T) {
	o := chaosOptions()
	a := o.recoveryPoint("drop", 0.05)
	b := o.recoveryPoint("drop", 0.05)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("recovery point nondeterministic:\n%+v\nvs\n%+v", a, b)
	}
}

func TestReportRecoveryAndChaosSections(t *testing.T) {
	o := chaosOptions()
	cfg := DefaultChaosConfig()
	cfg.Workloads = []string{"stream"}
	r := &Report{
		Options:  o,
		Recovery: o.RunResilienceRecovery(),
		Chaos:    runChaos(t, o, cfg),
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Link-fault resilience", "baseline:", "all invariants held", "chaos fault/recovery counters"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	dir := t.TempDir()
	if err := r.WriteCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig_resilience_recovery.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "scenario,level,bandwidth_gbs,mean_recovery_us,retransmits,dead,poisoned,downs,recoveries" {
		t.Errorf("header = %q", lines[0])
	}
	// Header + baseline + 9 sweep points.
	if len(lines) != 11 {
		t.Errorf("rows = %d, want 11", len(lines))
	}
	if !strings.HasPrefix(lines[1], "baseline,") {
		t.Errorf("first data row = %q", lines[1])
	}
	for _, f := range []string{"chaos_table.csv", "chaos_counters.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(data) == 0 {
			t.Errorf("%s empty", f)
		}
	}
}

func TestChaosElapsedReflectsFaultPressure(t *testing.T) {
	o := chaosOptions()
	clean := DefaultChaosConfig()
	clean.Faults = ChaosFaults{}
	clean.Workloads = []string{"stream"}
	faulty := DefaultChaosConfig()
	faulty.Workloads = []string{"stream"}
	tClean := runChaos(t, o, clean).Results[0].ElapsedUs
	tFaulty := runChaos(t, o, faulty).Results[0].ElapsedUs
	if tFaulty <= tClean {
		t.Fatalf("faults did not cost time: %v us vs %v us", tFaulty, tClean)
	}
}
