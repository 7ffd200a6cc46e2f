package metricsplane

import (
	"fmt"
	"sort"
	"sync"
)

// Kind discriminates the metric families a Registry holds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindFloatCounter
	KindHistogram
)

// String names the kind in Prometheus TYPE terms.
func (k Kind) String() string {
	switch k {
	case KindCounter, KindFloatCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name with all its label children.
type family struct {
	name     string
	help     string
	kind     Kind
	counters map[Labels]*Counter
	floats   map[Labels]*FloatCounter
	gauges   map[Labels]*Gauge
	hists    map[Labels]*Histogram
}

// Registry is a concurrency-safe get-or-create store of labeled metric
// families. Instrument handles are resolved once at wiring time (under
// the registry mutex) and then updated lock-free through atomics, so the
// hot path never takes the lock; exporters take it only to walk the
// family maps, reading values atomically.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor fetches or creates the named family, checking kind.
func (r *Registry) familyFor(name, help string, kind Kind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		switch kind {
		case KindCounter:
			f.counters = make(map[Labels]*Counter)
		case KindFloatCounter:
			f.floats = make(map[Labels]*FloatCounter)
		case KindGauge:
			f.gauges = make(map[Labels]*Gauge)
		case KindHistogram:
			f.hists = make(map[Labels]*Histogram)
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metricsplane: %s registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter for (name, labels), creating family and
// child as needed. Safe for concurrent use; the returned handle is
// shared by every caller using the same key.
func (r *Registry) Counter(name, help string, l Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindCounter)
	c, ok := f.counters[l]
	if !ok {
		c = &Counter{}
		f.counters[l] = c
	}
	return c
}

// counterValue reads the counter (name, labels) without creating it: 0
// when the family or child does not exist.
func (r *Registry) counterValue(name string, l Labels) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != KindCounter {
		return 0
	}
	return f.counters[l].Value()
}

// FloatCounter returns the float counter for (name, labels).
func (r *Registry) FloatCounter(name, help string, l Labels) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindFloatCounter)
	c, ok := f.floats[l]
	if !ok {
		c = &FloatCounter{}
		f.floats[l] = c
	}
	return c
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, l Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindGauge)
	g, ok := f.gauges[l]
	if !ok {
		g = &Gauge{}
		f.gauges[l] = g
	}
	return g
}

// Histogram returns the histogram for (name, labels) with the default
// latency geometry.
func (r *Registry) Histogram(name, help string, l Labels) *Histogram {
	return r.HistogramWith(name, help, l, DefaultLatencyFirstUs, DefaultLatencyGrowth, DefaultLatencyBuckets)
}

// HistogramWith returns the histogram for (name, labels) with explicit
// geometry. Geometry is fixed by the first creation; later callers get
// the existing child regardless of the geometry they pass.
func (r *Registry) HistogramWith(name, help string, l Labels, first, growth float64, n int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindHistogram)
	h, ok := f.hists[l]
	if !ok {
		h = NewHistogram(first, growth, n)
		f.hists[l] = h
	}
	return h
}

// Sample is one exported child: a (name, labels) pair with its current
// value. Exactly one of Value / Hist carries the payload depending on
// Kind.
type Sample struct {
	Name   string
	Help   string
	Kind   Kind
	Labels Labels
	Value  float64
	Hist   *HistSnapshot
}

// Snapshot returns every child of every family, sorted by name then by
// label tuple — a deterministic order for all exporters. Values are read
// atomically, so a snapshot taken mid-run is internally consistent per
// metric (not across metrics, which live scraping cannot promise).
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Sample
	for _, name := range names {
		f := r.families[name]
		labels := f.labelSets()
		for _, l := range labels {
			s := Sample{Name: f.name, Help: f.help, Kind: f.kind, Labels: l}
			switch f.kind {
			case KindCounter:
				s.Value = float64(f.counters[l].Value())
			case KindFloatCounter:
				s.Value = f.floats[l].Value()
			case KindGauge:
				s.Value = f.gauges[l].Value()
			case KindHistogram:
				snap := f.hists[l].snapshot()
				s.Hist = &snap
			}
			out = append(out, s)
		}
	}
	return out
}

// labelSets returns the family's children sorted by label tuple.
func (f *family) labelSets() []Labels {
	var out []Labels
	switch f.kind {
	case KindCounter:
		for l := range f.counters {
			out = append(out, l)
		}
	case KindFloatCounter:
		for l := range f.floats {
			out = append(out, l)
		}
	case KindGauge:
		for l := range f.gauges {
			out = append(out, l)
		}
	case KindHistogram:
		for l := range f.hists {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}
