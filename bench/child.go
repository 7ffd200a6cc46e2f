package main

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"time"
)

// childReport is what one workload's child process hands back to the
// harness on its standard output.
type childReport struct {
	Workload   string             `json:"workload"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Units      int                `json:"units"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Summaries  map[string]summary `json:"summaries"`
	// P90Resolved reports whether host.unit_s_p90 has ten samples beyond it.
	P90Resolved bool `json:"p90_resolved"`
	// Digest folds the simulated outputs of the counted units; two runs
	// of the same commit and seed must agree on it.
	Digest string `json:"digest,omitempty"`
}

func newReport(name string) *childReport {
	return &childReport{
		Workload:   name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    map[string]float64{},
		Summaries:  map[string]summary{},
	}
}

const maxErrors = 5 // audit failures kept verbatim in a report

func (r *childReport) fail(what string, err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", what, err))
	}
}

const (
	// warmupUnits run before timing starts, so caches, pools and the
	// heap reach their steady state.
	warmupUnits = 3
	// minUnits is the fewest timed units a run reports quartiles from.
	minUnits = 10
	// countUnits is how many leading timed units the count metrics sum
	// over; fixing it makes counts repeat exactly however long a run is.
	countUnits = 5
)

// runSimChild runs a simulated workload for at least seconds of timed
// units. With trace, odd units record spans and even units stay untraced;
// host metrics come from the untraced ones, and the traced/untraced ratio
// is the tracing overhead.
func runSimChild(name string, w simWorkload, seed uint64, seconds float64, trace bool, rec *recorder) *childReport {
	rep := newReport(name)
	for i := 0; i < warmupUnits; i++ {
		calibrate()
		runtime.GC()
		rep.Attempted++
		if out := w(seed, i, nil, -1); out.err != nil {
			rep.fail(fmt.Sprintf("unit %d", i), out.err)
		}
	}
	var (
		setups, runs, traced []float64
		rawRuns, cals        []float64
		prefix, untraced     counts
		gc                   goSample
		rawTotal             float64
	)
	g0 := readGo()
	start := time.Now()
	before := calibrate()
	for i := 0; i < minUnits || time.Since(start).Seconds() < seconds; i++ {
		unit := warmupUnits + i
		// Each unit starts from a collected heap and is scaled by the
		// calibration readings just before and just after it.
		runtime.GC()
		rec.on = trace && i%2 == 1
		root := rec.begin("unit", -1, unit)
		out := w(seed, unit, rec, root)
		rec.end(root)
		isTraced := rec.on
		rec.on = false
		after := calibrate()
		cal := math.Sqrt(before * after)
		scale := hostScale(name, cal)
		before = after

		rep.Attempted++
		if out.err != nil {
			rep.fail(fmt.Sprintf("unit %d", unit), out.err)
		}
		cals = append(cals, cal)
		setups = append(setups, out.setup.Seconds()*scale)
		if i < countUnits {
			prefix.add(out.counts)
		}
		if isTraced {
			traced = append(traced, out.run.Seconds()*scale)
			continue
		}
		runs = append(runs, out.run.Seconds()*scale)
		rawRuns = append(rawRuns, out.run.Seconds())
		rawTotal += out.run.Seconds()
		untraced.add(out.counts)
		gc = gc.add(out.gc)
	}
	phase := readGo().sub(g0)
	rep.Units = len(setups)

	m := rep.Metrics
	m["setup_s"] = median(setups)
	m["unit_s_p50"] = median(runs)
	m["peak_rss_mb"] = peakRSSMB()
	rep.Summaries["setup_s"] = summarize(setups)
	rep.Summaries["unit_s_p50"] = summarize(runs)
	m["host.unit_s_p90"], rep.P90Resolved = p90(runs)
	m["host.unit_s_raw_p50"] = median(rawRuns)
	m["host.calibration_s"] = median(cals)

	var runTotal float64
	for _, s := range runs {
		runTotal += s
	}
	m["host.fills_per_s"] = ratio(float64(untraced.Fills), runTotal)
	m["host.sim_us_per_s"] = ratio(float64(untraced.SimPs)/1e6, runTotal)
	m["host.alloc_bytes_per_fill"] = per(gc.allocBytes, untraced.Fills)
	m["go.alloc_bytes_per_event"] = per(gc.allocBytes, untraced.Events)
	m["go.gc_cycles_per_unit"] = ratio(float64(gc.gcCycles), float64(len(runs)))
	m["go.gc_cpu_frac"] = ratio(phase.gcCPU, phase.totalCPU)
	maps.Copy(m, layerCounts(prefix))
	rep.Digest = fmt.Sprintf("%016x", prefix.Digest)

	if trace {
		self, total := rec.selfTimes(), rec.totals()
		m["sim.run_self_frac"] = ratio(self["sim.run"]+self["sim.step"], total["unit"])
		m["memport.issue_frac"] = ratio(total["memport.issue"], total["unit"])
		m["cluster.build_s"] = median(rec.durations("cluster.build"))
		m["workloads.inputgen_s"] = median(rec.durations("workloads.inputgen"))
		m["trace.overhead_frac"] = ratio(median(traced), median(runs)) - 1
		lad := runLadder()
		maps.Copy(m, lad)
		cacheNs := lad["cache.access_random_ns"]
		if name == wStream {
			cacheNs = lad["cache.access_stream_ns"]
		}
		// The ladder times raw host ns, so coverage divides by raw time.
		m["attrib.coverage"] = coverage(lad, cacheNs, untraced, ratio(rawTotal*1e9, float64(untraced.Fills)))
		if name == wChurn {
			r, err := shardWallRatio(seed)
			rep.Attempted += 2 * shardUnits
			if err != nil {
				rep.fail("sharded units", err)
			}
			m["sim.shard_wall_ratio"] = r
		}
	}
	return rep
}

// per is a count ratio, 0 when the denominator is 0.
func per(a, b uint64) float64 { return ratio(float64(a), float64(b)) }

// layerCounts derives the per-layer count metrics from summed counters.
func layerCounts(c counts) map[string]float64 {
	f := c.Fills
	return map[string]float64{
		"sim.events_per_fill":               per(c.Events, f),
		"sim.timers_armed_per_fill":         per(c.TimersArmed, f),
		"sim.timer_cancel_frac":             per(c.TimersCancelled, c.TimersArmed),
		"axis.tx_beats_per_fill":            per(c.TxBeats, f),
		"netlink.bytes_per_fill":            per(c.WireBytes, f),
		"netlink.utilization":               ratio(c.LinkUtilSum, float64(c.Units)),
		"fabric.forwarded_per_fill":         per(c.Forwarded, f),
		"fabric.dropped":                    float64(c.Dropped),
		"tfnic.requests_per_fill":           per(c.Requests, f),
		"tfnic.arq_attempts_per_completion": per(c.ARQTracked+c.ARQRetransmits, c.ARQCompleted),
		"tfnic.arq_timeouts_per_kfill":      per(1000*c.ARQTimeouts, f),
		"tfnic.crash_drops":                 float64(c.CrashDrops),
		"tfnic.wipe_nacks":                  float64(c.WipeNacks),
		"dram.accesses_per_fill":            per(c.DRAMAccesses, f),
		"dram.utilization":                  ratio(c.DRAMUtilSum, float64(c.Units)),
		"cache.hit_ratio":                   per(c.CacheHits, c.CacheHits+c.CacheMisses),
		"cache.writebacks_per_fill":         per(c.Writebacks, f),
		"memport.fills_per_access":          per(f, c.Accesses),
		"memport.poisoned_frac":             per(c.Poisoned, c.PortOps),
		"memport.expired_frac":              per(c.Expired, c.PortOps),
		"pool.attach_rejected_frac":         per(c.Rejected, c.Attaches+c.Rejected),
	}
}

// coverage is the share of the measured host ns per fill that the ladder
// explains: each rung's ns/op times its per-fill operation count. Work a
// rung does not isolate (event handler bodies, the NIC's internal queues,
// DRAM channel modelling) is left out, so coverage stays below 1.
func coverage(lad map[string]float64, cacheNs float64, c counts, nsPerFill float64) float64 {
	f := c.Fills
	explained := per(c.Events, f)*lad["sim.dispatch_ns"] +
		per(c.TxBeats+c.RxBeats, f)*lad["axis.fifo_pushpop_ns"] +
		per(c.CacheHits+c.CacheMisses, f)*cacheNs +
		per(c.Requests, f)*(lad["ocapi.packet_getput_ns"]+lad["ocapi.tag_alloc_ns"]) +
		per(c.TimersArmed, f)*lad["sim.wheel_arm_cancel_ns"] +
		per(c.Attaches+c.Detaches+c.Grows, f)*lad["pool.alloc_free_ns"]
	return ratio(explained, nsPerFill)
}

// shardUnits is how many rack-churn units each side of the shard ratio
// runs.
const shardUnits = 3

// shardWallRatio times rack-churn units with the kernel sharded one per
// CPU against the single kernel, both at GOMAXPROCS = nproc, interleaved.
func shardWallRatio(seed uint64) (float64, error) {
	procs := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var legacy, sharded []float64
	for i := 0; i < shardUnits; i++ {
		unit := 1 << 20 // beyond any timed unit index
		s := churnUnit(seed, unit+i, max(procs, 2), nil, -1)
		l := churnUnit(seed, unit+i, 0, nil, -1)
		if s.err != nil {
			return 0, s.err
		}
		if l.err != nil {
			return 0, l.err
		}
		if s.counts.Digest != l.counts.Digest {
			return 0, fmt.Errorf("sharded unit %d digest %x differs from single-kernel %x", unit+i, s.counts.Digest, l.counts.Digest)
		}
		sharded = append(sharded, s.run.Seconds())
		legacy = append(legacy, l.run.Seconds())
	}
	return ratio(median(sharded), median(legacy)), nil
}
