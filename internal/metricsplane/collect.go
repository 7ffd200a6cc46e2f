package metricsplane

import "thymesim/internal/sim"

// Collect registers fn as a collector on kernel k. fn reads components'
// own counters and gauges (their Stats structs and getters) and hands them
// to the Publisher. It runs once now, as a baseline, and then at each of
// k's publish points: whenever Run, RunUntil or StepTo returns, and at
// every WindowStream tick. A baseline pass registers every series but adds
// nothing, so the plane counts from the moment the collector attaches.
//
// Each later pass adds the collector's deltas since its previous pass to
// the shared registry counters, so sweep points that run concurrently and
// share a label set still sum deterministically. Gauges are read at
// publish time. Publishing schedules no event and leaves the clock alone.
// Collect on a nil plane does nothing.
func (p *Plane) Collect(k *sim.Kernel, fn func(*Publisher)) {
	if p == nil {
		return
	}
	pb := &Publisher{reg: p.reg, index: make(map[childKey]*series), baseline: true}
	fn(pb)
	pb.baseline = false
	k.OnPublish(func() { fn(pb) })
}

// Publisher is one collector's view of the registry: it remembers, per
// series, the value it last published, so a pass adds only what changed.
// A pass over series it has seen before allocates nothing.
type Publisher struct {
	reg      *Registry
	index    map[childKey]*series
	baseline bool
}

type childKey struct {
	name string
	l    Labels
}

// series is one published (name, labels) child and its last value.
type series struct {
	c    *Counter
	g    *Gauge
	last uint64
}

// Counter publishes a monotonic count: the value read from the component
// now, of which the delta since this collector's last pass is added to
// the registry counter (name, l).
func (pb *Publisher) Counter(name, help string, l Labels, v uint64) {
	s := pb.series(name, help, l, KindCounter)
	if !pb.baseline && v > s.last {
		s.c.Add(v - s.last)
	}
	s.last = v
}

// Gauge publishes an instantaneous value to the registry gauge (name, l).
func (pb *Publisher) Gauge(name, help string, l Labels, v float64) {
	pb.series(name, help, l, KindGauge).g.Set(v)
}

// series returns the collector's record of (name, l), creating it and
// its registry child on first use.
func (pb *Publisher) series(name, help string, l Labels, kind Kind) *series {
	key := childKey{name, l}
	s, ok := pb.index[key]
	if !ok {
		s = &series{}
		if kind == KindCounter {
			s.c = pb.reg.Counter(name, help, l)
		} else {
			s.g = pb.reg.Gauge(name, help, l)
		}
		pb.index[key] = s
	}
	return s
}

// NodeRecorder is a node-stamped handle on the plane's flight recorder:
// what a datapath component keeps to record its rare events. The zero
// value records nothing.
type NodeRecorder struct {
	rec  *FlightRecorder
	node int
}

// RecorderFor returns the flight-recorder handle for a node (the zero,
// inert handle on a nil plane).
func (p *Plane) RecorderFor(node int) NodeRecorder {
	if p == nil {
		return NodeRecorder{}
	}
	return NodeRecorder{rec: p.rec, node: node}
}

// Record appends one event at simulated time now.
func (r NodeRecorder) Record(now sim.Time, kind string, detail uint64) {
	if r.rec != nil {
		r.rec.Record(now.Micros(), r.node, kind, detail)
	}
}
