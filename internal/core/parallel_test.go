package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// writeReportDir renders a report's CSVs into a temp dir and returns its
// files as name -> contents.
func writeReportDir(t *testing.T, rep *Report) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := rep.WriteCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestParallelSweepDeterminism is the tentpole regression guarantee: the
// worker count and the largest-first dispatch order are throughput knobs,
// never results knobs. The same seed must produce byte-identical CSVs at
// -j 1 and -j 8. Fig. 5 runs twice: with a PERIOD=1 point, which doubles
// as the baseline, and without one, where the baseline is an extra point.
func TestParallelSweepDeterminism(t *testing.T) {
	periods := []int64{1, 10, 50, 100}
	counts := []int{0, 1, 2}
	build := func(workers int) []*Report {
		o := fastOptions()
		o.Workers = workers
		return []*Report{{
			Options:    o,
			Validation: o.RunDelayValidation(periods),
			Table1:     o.RunTable1(),
			Fig5:       o.RunAppDegradation([]int64{1, 125, 1000}),
			MCBN:       o.RunMCBN(counts),
			MCLN:       o.RunMCLN(counts),
			Pool:       o.RunMCLNPool(counts, 25e9),
			PoolCont:   o.RunPoolContention([]int{1, 2, 4}, 2),
			Breakdown:  o.RunLatencyBreakdown(periods, 4),
		}, {
			Options: o,
			Fig5:    o.RunAppDegradation([]int64{125, 1000}),
		}}
	}
	serialReps, parallelReps := build(1), build(8)
	for r := range serialReps {
		serial := writeReportDir(t, serialReps[r])
		parallel := writeReportDir(t, parallelReps[r])
		if len(serial) == 0 {
			t.Fatal("no CSV files written")
		}
		if len(serial) != len(parallel) {
			t.Fatalf("report %d: file sets differ: %d serial vs %d parallel", r, len(serial), len(parallel))
		}
		for name, want := range serial {
			got, ok := parallel[name]
			if !ok {
				t.Fatalf("report %d: %s missing from parallel run", r, name)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report %d: %s differs between -j 1 and -j 8:\nserial:\n%s\nparallel:\n%s", r, name, want, got)
			}
		}
	}
}

// TestPoolContentionDeterminism pins the pool experiment's determinism
// contract on its own: two same-seed invocations are byte-identical, and
// the serial/parallel CSVs match (the N×M pool points are independent
// testbeds, so worker scheduling must never leak into results).
func TestPoolContentionDeterminism(t *testing.T) {
	run := func(workers int) map[string][]byte {
		o := fastOptions()
		o.Workers = workers
		rep := &Report{Options: o, PoolCont: o.RunPoolContention([]int{1, 2, 4, 8}, 4)}
		return writeReportDir(t, rep)
	}
	first := run(1)
	again := run(1)
	wide := run(8)
	csv, ok := first["fig_pool_contention.csv"]
	if !ok || len(csv) == 0 {
		t.Fatal("fig_pool_contention.csv missing or empty")
	}
	if !bytes.Equal(csv, again["fig_pool_contention.csv"]) {
		t.Error("two same-seed serial runs differ")
	}
	if !bytes.Equal(csv, wide["fig_pool_contention.csv"]) {
		t.Errorf("-j 1 and -j 8 differ:\nserial:\n%s\nparallel:\n%s", csv, wide["fig_pool_contention.csv"])
	}
}

// TestPoolChaosConfigErrors: an invalid campaign config comes back as an
// error and a nil result, before any pool is built.
func TestPoolChaosConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*PoolChaosConfig)
	}{
		{"zero borrowers", func(c *PoolChaosConfig) { c.Borrowers = 0 }},
		{"zero lenders", func(c *PoolChaosConfig) { c.Lenders = 0 }},
		{"zero rounds", func(c *PoolChaosConfig) { c.Rounds = 0 }},
	} {
		cfg := DefaultPoolChaosConfig()
		tc.mut(&cfg)
		if r, err := fastOptions().RunPoolChaos(cfg); err == nil || r != nil {
			t.Errorf("%s: RunPoolChaos = (%v, %v), want an error", tc.name, r, err)
		}
	}
}

// TestPoolChaosAuditHolds runs the pool chaos campaign across seeds and
// checks determinism (same seed, same counters) plus the invariant audit.
func TestPoolChaosAuditHolds(t *testing.T) {
	run := func(seed uint64) *PoolChaos {
		o := fastOptions()
		cfg := DefaultPoolChaosConfig()
		cfg.Seed = seed
		r, err := o.RunPoolChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for seed := uint64(1); seed <= 3; seed++ {
		r := run(seed)
		if !r.OK() {
			t.Fatalf("seed %d: %v", seed, r.Violations)
		}
		if r.Issued == 0 || r.Attaches == 0 {
			t.Fatalf("seed %d: campaign idle (%d issued, %d attaches)", seed, r.Issued, r.Attaches)
		}
		again := run(seed)
		if r.Issued != again.Issued || r.Completed != again.Completed ||
			r.Attaches != again.Attaches || r.Detaches != again.Detaches ||
			r.Crashes != again.Crashes || r.Poisoned != again.Poisoned {
			t.Fatalf("seed %d not deterministic: %+v vs %+v", seed, r, again)
		}
	}
}

// TestConcurrentSweepsUnderRace runs two full sweeps side by side — each
// internally parallel — to prove (under -race) that concurrent testbeds
// share no mutable state.
func TestConcurrentSweepsUnderRace(t *testing.T) {
	run := func(seed uint64) (*ChaosReport, error) {
		o := fastOptions()
		o.Seed = seed
		o.Workers = 2
		cfg := DefaultChaosConfig()
		cfg.Seed = seed
		cfg.Workloads = []string{"stream", "kvstore"}
		return o.RunChaos(cfg)
	}
	var wg sync.WaitGroup
	reps := make([]*ChaosReport, 2)
	errs := make([]error, 2)
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = run(uint64(i + 1))
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !rep.OK() {
			t.Errorf("sweep %d: chaos invariants violated: %+v", i, rep.Results)
		}
	}
}

// TestMCBNZeroCountNoNaN pins the divide-by-zero fix: a zero instance
// count must contribute 0 GB/s, not NaN, to Fig. 6.
func TestMCBNZeroCountNoNaN(t *testing.T) {
	o := fastOptions()
	c := o.RunMCBN([]int{0, 1})
	if len(c.BorrowerBps) != 2 {
		t.Fatalf("points = %d, want 2", len(c.BorrowerBps))
	}
	if math.IsNaN(c.BorrowerBps[0]) || c.BorrowerBps[0] != 0 {
		t.Fatalf("n=0 bandwidth = %v, want 0", c.BorrowerBps[0])
	}
	if c.BorrowerBps[1] <= 0 || math.IsNaN(c.BorrowerBps[1]) {
		t.Fatalf("n=1 bandwidth = %v, want > 0", c.BorrowerBps[1])
	}
	for _, pt := range c.Figure.Series[0].Points {
		if math.IsNaN(pt.Y) {
			t.Fatalf("NaN leaked into the figure: %+v", c.Figure.Series[0].Points)
		}
	}
}
