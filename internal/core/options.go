// Package core is the paper's characterization framework: it composes the
// testbed, workloads, and delay-injection framework into the experiments
// of §IV, regenerating every figure and table — delay-injection validation
// (Figs. 2–3), resilience assessment (Fig. 4, Table I), application
// performance impact (Fig. 5), and resource contention (Figs. 6–7) — plus
// the §V/§VII extension studies (memory pooling, distribution-based
// injection).
package core

import (
	"fmt"

	"thymesim/internal/cluster"
	"thymesim/internal/control"
	"thymesim/internal/dram"
	"thymesim/internal/metricsplane"
	"thymesim/internal/migrate"
	"thymesim/internal/sim"
)

// Options scales the experiments. Defaults run the full suite in seconds
// of wall time; Paper() reproduces the paper's sizes (slower but the same
// code path).
type Options struct {
	// StreamElements per array (paper: 10M).
	StreamElements int
	// GraphScale / GraphEdgeFactor / GraphRoots for Graph500 (paper: 20 /
	// 16 / 64 roots).
	GraphScale      int
	GraphEdgeFactor int
	GraphRoots      int
	// KVClients x KVRequests drive Memtier (paper: 200 x 10000).
	KVThreads    int
	KVConns      int
	KVRequests   int
	KVKeySpace   int
	KVValueBytes int
	// LLCBytes sizes the per-hierarchy cache so the scaled working sets
	// still stream (paper: 120 MiB against GB-scale sets).
	LLCBytes int
	LLCWays  int
	// Seed drives all generators.
	Seed uint64
	// Workers bounds how many sweep points run concurrently (< 1 means one
	// per CPU). Every sweep point owns its testbed and derives its
	// randomness from Seed, so the worker count changes wall clock only:
	// results are byte-identical at any setting.
	Workers int
	// Metrics, when non-nil, attaches the labeled metrics plane to every
	// testbed and pool the runners build. The plane is shared across
	// sweep points (series with equal labels sum), and it only observes:
	// simulated results are identical with it on or off.
	Metrics *metricsplane.Plane
}

// Default returns the scaled-down experiment sizes.
func Default() Options {
	return Options{
		StreamElements:  1 << 15,
		GraphScale:      12,
		GraphEdgeFactor: 16,
		GraphRoots:      1,
		KVThreads:       2,
		KVConns:         10,
		KVRequests:      10,
		KVKeySpace:      1 << 12,
		KVValueBytes:    512,
		// The LLC is scaled with the working sets to preserve the paper's
		// LLC:working-set ratio (120 MiB against 0.2-4 GB sets => a few
		// percent resident).
		LLCBytes: 64 << 10,
		LLCWays:  4,
		Seed:     1,
	}
}

// Paper returns the paper's experiment sizes (§IV-A). Expect minutes of
// wall time per experiment.
func Paper() Options {
	o := Default()
	o.StreamElements = 10_000_000
	o.GraphScale = 20
	o.GraphRoots = 4
	o.KVThreads = 4
	o.KVConns = 50
	o.KVRequests = 10000
	o.KVKeySpace = 1 << 23
	o.LLCBytes = 128 << 20
	o.LLCWays = 16
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.StreamElements < 16 {
		return fmt.Errorf("core: StreamElements = %d", o.StreamElements)
	}
	if o.GraphScale < 1 || o.GraphRoots < 1 {
		return fmt.Errorf("core: graph scale/roots %d/%d", o.GraphScale, o.GraphRoots)
	}
	if o.KVThreads < 1 || o.KVConns < 1 || o.KVRequests < 1 {
		return fmt.Errorf("core: kv clients %d x %d x %d", o.KVThreads, o.KVConns, o.KVRequests)
	}
	if o.LLCBytes < 1<<12 {
		return fmt.Errorf("core: LLC %d too small", o.LLCBytes)
	}
	// The geometry the testbeds will build must be one cache.New accepts.
	return o.TestbedConfig(1).LLC.Validate()
}

// collectMigrator publishes the borrower's page migrator counters to the
// metrics plane at k's publish points (no-op without a plane).
func (o Options) collectMigrator(k *sim.Kernel, mig *migrate.Migrator) {
	if o.Metrics == nil {
		return
	}
	l := metricsplane.ForNode(cluster.BorrowerID)
	o.Metrics.Collect(k, func(pb *metricsplane.Publisher) {
		st := mig.Stats()
		pb.Counter("thymesim_migrate_promotions_total", "Pages promoted to local memory.", l, st.Promotions)
		pb.Counter("thymesim_migrate_degraded_pages_total", "Pages force-localized by degradation.", l, st.DegradedPages)
		pb.Counter("thymesim_migrate_localized_total", "Accesses served locally post-migration.", l, st.LocalAccesses)
		pb.Counter("thymesim_migrate_gate_localized_total", "Accesses localized by the admission gate.", l, st.GateLocalized)
	})
}

// collectBreaker publishes the borrower's circuit-breaker counters and
// state to the metrics plane at k's publish points, and hands the breaker
// the flight-recorder handle for its transitions (no-op without a plane).
func (o Options) collectBreaker(k *sim.Kernel, brk *control.Breaker) {
	if o.Metrics == nil {
		return
	}
	l := metricsplane.ForNode(cluster.BorrowerID)
	brk.SetRecorder(o.Metrics.RecorderFor(cluster.BorrowerID))
	o.Metrics.Collect(k, func(pb *metricsplane.Publisher) {
		st := brk.Stats()
		pb.Gauge("thymesim_breaker_state", "Breaker state (0 closed, 1 open, 2 half-open).", l, float64(brk.State()))
		pb.Counter("thymesim_breaker_transitions_total", "Breaker state transitions.", l, st.Transitions())
		pb.Counter("thymesim_breaker_trips_total", "Closed-to-open trips.", l, st.Trips)
		pb.Counter("thymesim_breaker_reopens_total", "Half-open probes that failed back to open.", l, st.Reopens)
		pb.Counter("thymesim_breaker_closes_total", "Transitions back to closed.", l, st.Closes)
		pb.Counter("thymesim_breaker_short_circuited_total", "Accesses fast-failed while open.", l, st.ShortCircuited)
	})
}

// Testbed builds the two-node system with the given injector PERIOD and
// this option set's cache geometry.
func (o Options) Testbed(period int64) *cluster.Testbed {
	cfg := o.TestbedConfig(period)
	return cluster.NewTestbed(cfg)
}

// TestbedConfig returns the cluster configuration used by Testbed, for
// experiments that need to customize it further.
func (o Options) TestbedConfig(period int64) cluster.Config {
	cfg := cluster.DefaultConfig(period)
	cfg.LLC.SizeBytes = o.LLCBytes
	cfg.LLC.Ways = o.LLCWays
	cfg.Metrics = o.Metrics
	return cfg
}

// PoolTestbedConfig returns a testbed whose lender is a CPU-less memory
// pool with the given device bandwidth (§V discussion).
func (o Options) PoolTestbedConfig(period int64, poolBps float64) cluster.Config {
	cfg := o.TestbedConfig(period)
	cfg.LenderDRAM = dram.PoolConfig(poolBps)
	return cfg
}

// DefaultPeriods is the validation sweep of Figs. 2–3: PERIOD values whose
// induced latency spans ~1.2–150 µs.
func DefaultPeriods() []int64 {
	return []int64{1, 2, 5, 10, 25, 50, 100, 200, 300}
}

// ResiliencePeriods is the exponential stress sweep of Fig. 4.
func ResiliencePeriods() []int64 { return []int64{1, 10, 100, 1000, 10000} }

// Fig5Periods is the application-impact sweep of Fig. 5.
func Fig5Periods() []int64 { return []int64{1, 10, 30, 60, 125, 250, 500, 1000} }
