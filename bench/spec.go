package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"

	"thymesim/internal/core"
)

// Workload names. Later changes refer to them, so they are fixed.
const (
	wStream = "stream-remote"
	wKV     = "kv-remote"
	wChurn  = "rack-churn"
	wRegen  = "regen-results"
)

// workloadNames lists the workloads in the order a full set runs them.
var workloadNames = []string{wStream, wKV, wChurn, wRegen}

// metricDef is one metric of the benchmark. Per-layer metrics also name the
// end-to-end metric they should move and the workloads on which they should
// move it, written down before any change is measured against them.
type metricDef struct {
	name, unit, better string
	moves              string
	on                 []string
}

var simWorkloads = []string{wStream, wKV, wChurn}

// endToEnd lists what a user of the simulator waits for or pays, on every
// workload. Bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "unit_s_p50", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer lists the traced run's metrics in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := func(name, unit, better, moves string, on ...string) metricDef {
		return metricDef{name: name, unit: unit, better: better, moves: moves, on: on}
	}
	const p50 = "unit_s_p50"
	defs := []metricDef{
		m("sim.events_per_fill", "events/fill", "lower", p50, wStream, wChurn, wKV),
		m("sim.dispatch_ns", "ns", "lower", p50, wStream, wKV),
		m("sim.closure_dispatch_ns", "ns", "lower", p50, wRegen),
		m("sim.timers_armed_per_fill", "timers/fill", "lower", p50, wChurn),
		m("sim.timer_cancel_frac", "ratio", "higher", p50, wChurn),
		m("sim.wheel_arm_cancel_ns", "ns", "lower", p50, wChurn),
		m("sim.run_self_frac", "ratio", "lower", p50, wStream, wKV, wChurn),
		m("sim.shard_wall_ratio", "ratio", "lower", p50, wChurn),
		m("axis.fifo_pushpop_ns", "ns", "lower", p50, wStream),
		m("axis.tx_beats_per_fill", "beats/fill", "lower", p50, wStream),
		m("netlink.bytes_per_fill", "B/fill", "lower", p50, wStream, wKV),
		m("netlink.utilization", "ratio", "higher", p50, wStream, wKV),
		m("fabric.forwarded_per_fill", "beats/fill", "lower", p50, wChurn),
		m("fabric.dropped", "count", "lower", p50, wChurn),
		m("tfnic.requests_per_fill", "requests/fill", "lower", p50, wChurn, wStream),
		m("tfnic.arq_attempts_per_completion", "attempts/txn", "lower", p50, wChurn),
		m("tfnic.arq_timeouts_per_kfill", "timeouts/kfill", "lower", p50, wChurn),
		m("tfnic.crash_drops", "count", "lower", p50, wChurn),
		m("tfnic.wipe_nacks", "count", "lower", p50, wChurn),
		m("ocapi.packet_getput_ns", "ns", "lower", p50, wStream, wChurn),
		m("ocapi.tag_alloc_ns", "ns", "lower", p50, wStream, wChurn),
		m("dram.accesses_per_fill", "accesses/fill", "lower", p50, wStream),
		m("dram.utilization", "ratio", "higher", p50, wStream),
		m("dram.access_ns", "ns", "lower", p50, wStream),
		m("cache.hit_ratio", "ratio", "higher", p50, wKV),
		m("cache.writebacks_per_fill", "writebacks/fill", "lower", p50, wKV),
		m("cache.access_stream_ns", "ns", "lower", p50, wStream),
		m("cache.access_random_ns", "ns", "lower", p50, wKV),
		m("memport.fills_per_access", "fills/access", "lower", p50, wKV),
		m("memport.issue_frac", "ratio", "lower", p50, wChurn),
		m("memport.poisoned_frac", "ratio", "lower", p50, wChurn),
		m("memport.expired_frac", "ratio", "lower", p50, wChurn),
		m("pool.alloc_free_ns", "ns", "lower", p50, wChurn),
		m("pool.attach_rejected_frac", "ratio", "lower", p50, wChurn),
		m("cluster.build_s", "s", "lower", "setup_s", simWorkloads...),
		m("workloads.inputgen_s", "s", "lower", "setup_s", simWorkloads...),
	}
	for _, name := range core.ExperimentNames() {
		defs = append(defs, m("core.experiment_s."+name, "s", "lower", p50, wRegen))
	}
	return append(defs,
		m("core.render_s", "s", "lower", p50, wRegen),
		m("go.gc_cpu_frac", "ratio", "lower", p50, wKV, wChurn, wStream),
		m("go.gc_cycles_per_unit", "cycles/unit", "lower", p50, wKV, wChurn, wStream),
		m("go.alloc_bytes_per_event", "B/event", "lower", p50, wKV, wChurn, wStream),
		m("attrib.coverage", "ratio", "higher", p50, wStream, wChurn),
		m("trace.overhead_frac", "ratio", "lower", p50, workloadNames...),
		m("host.unit_s_p90", "s", "lower", p50, workloadNames...),
		m("host.unit_s_raw_p50", "s", "lower", p50, workloadNames...),
		m("host.calibration_s", "s", "lower", p50, workloadNames...),
		m("host.fills_per_s", "fills/s", "higher", p50, simWorkloads...),
		m("host.sim_us_per_s", "us/s", "higher", p50, simWorkloads...),
		m("host.alloc_bytes_per_fill", "B/fill", "lower", "peak_rss_mb", simWorkloads...),
	)
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("%s: %d bytes, limit 64 KiB", path, len(data))
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate enforces the limits BENCHMARK.json must keep.
func (s *spec) validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || (len(c) > 0 && c[0] == '/') {
			return fmt.Errorf("command string %q", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' || slices.Contains(strings.Split(p, "/"), "..") {
			return fmt.Errorf("path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds = %d, want 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		if err := m.check(use); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s: bound must be in [0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s end-to-end metric in s, lower is better")
	}
	for _, m := range s.PerLayer {
		if err := m.check(use); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	return nil
}

func (m specMetric) check(use func(string) error) error {
	if err := use(m.Name); err != nil {
		return err
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better = %q", m.Name, m.Better)
	}
	return nil
}
