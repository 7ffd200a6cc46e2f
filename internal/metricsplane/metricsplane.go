// Package metricsplane is the rack-scale labeled metrics plane: a
// registry of counters, gauges, and log-bucketed latency histograms keyed
// by the {node, lender, link, tenant, stage} label schema, with
// Prometheus text exposition, streaming NDJSON, an SLO tracker, and a
// bounded flight recorder of recent datapath events.
//
// Design constraints, in priority order (the same contract as the span
// tracer in internal/obs):
//
//  1. One counter store, pulled at safe points. Components hold no metric
//     handles: their own Stats structs and getters are the only counts.
//     The plane pulls them through collectors (Collect) at drain
//     boundaries — whenever Run, RunUntil or StepTo returns — and at
//     WindowStream ticks, so a live scrape sees a run's counters when a
//     run, phase or window ends. Only per-event data is pushed: the
//     fill-latency histogram and the flight recorder, each one nil check
//     when the plane is off. Publishing allocates nothing once warm, so
//     the warmed remote-fill path stays at 0 allocs/op.
//  2. Observation only. Collectors and instruments never schedule
//     events, draw randomness, or touch component state: simulated
//     results are bit-identical with the plane on or off.
//  3. Scrape-safe under concurrency. Metric values are atomics, so an
//     HTTP exposition goroutine can read mid-run while any number of
//     sweep workers (each owning its kernel) write. Points that share a
//     label set share the instrument: counters and histogram buckets sum
//     across concurrent sweep points deterministically; gauges are
//     last-write-wins and therefore diagnostic-only under -j > 1.
package metricsplane

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Unset marks an integer label as absent. The zero Labels value would
// otherwise claim node 0; build label sets with NewLabels / ForNode / the
// With* chain so absent dimensions stay absent.
const Unset = -1

// Labels is the fixed label schema every metric is keyed by. Integer
// labels use Unset (-1) for "not applicable"; string labels use "".
type Labels struct {
	// Node is the fabric node id (borrower or lender NIC port).
	Node int
	// Lender is the pool-local lender index (allocator scope).
	Lender int
	// Link is the link or switch-port id.
	Link int
	// Tenant distinguishes workloads or QoS classes sharing a node.
	Tenant string
	// Stage is the datapath stage name (obs.Stage rollups).
	Stage string
}

// NewLabels returns the empty label set (every dimension absent).
func NewLabels() Labels { return Labels{Node: Unset, Lender: Unset, Link: Unset} }

// ForNode returns a label set carrying only a node id.
func ForNode(node int) Labels { return NewLabels().WithNode(node) }

// WithNode returns a copy with the node label set.
func (l Labels) WithNode(node int) Labels { l.Node = node; return l }

// WithLender returns a copy with the lender label set.
func (l Labels) WithLender(lender int) Labels { l.Lender = lender; return l }

// WithLink returns a copy with the link label set.
func (l Labels) WithLink(link int) Labels { l.Link = link; return l }

// WithTenant returns a copy with the tenant label set.
func (l Labels) WithTenant(tenant string) Labels { l.Tenant = tenant; return l }

// WithStage returns a copy with the stage label set.
func (l Labels) WithStage(stage string) Labels { l.Stage = stage; return l }

// pairs returns the set label dimensions in schema order.
func (l Labels) pairs() []LabelPair {
	out := make([]LabelPair, 0, 5)
	if l.Node != Unset {
		out = append(out, LabelPair{"node", fmt.Sprint(l.Node)})
	}
	if l.Lender != Unset {
		out = append(out, LabelPair{"lender", fmt.Sprint(l.Lender)})
	}
	if l.Link != Unset {
		out = append(out, LabelPair{"link", fmt.Sprint(l.Link)})
	}
	if l.Tenant != "" {
		out = append(out, LabelPair{"tenant", l.Tenant})
	}
	if l.Stage != "" {
		out = append(out, LabelPair{"stage", l.Stage})
	}
	return out
}

// LabelPair is one rendered label dimension.
type LabelPair struct{ Name, Value string }

// less orders label sets deterministically for exposition.
func (l Labels) less(o Labels) bool {
	if l.Node != o.Node {
		return l.Node < o.Node
	}
	if l.Lender != o.Lender {
		return l.Lender < o.Lender
	}
	if l.Link != o.Link {
		return l.Link < o.Link
	}
	if l.Tenant != o.Tenant {
		return l.Tenant < o.Tenant
	}
	return l.Stage < o.Stage
}

// Counter is a monotonic event counter. All methods are nil-receiver
// safe, atomic, and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonic float accumulator (e.g. summed
// microseconds), exposed as a Prometheus counter. Adds use a CAS loop;
// writers are per-kernel so contention is scrape-only.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v (negative adds are ignored to keep monotonicity).
func (c *FloatCounter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the accumulated total (0 on nil).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-geometry log-bucketed latency histogram with
// atomic bucket counts: bucket 0 covers (-inf, first]; bucket i covers
// (first*growth^(i-1), first*growth^i]; the last bucket is open-ended.
// Observe is allocation-free and race-safe, so concurrent sweep points
// sharing a label set merge by construction.
type Histogram struct {
	first  float64
	growth float64
	invLog float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram whose first bucket boundary is first
// and whose boundaries grow geometrically by growth across n buckets
// (n >= 2; the n-th bucket is the +Inf overflow).
func NewHistogram(first, growth float64, n int) *Histogram {
	if first <= 0 || growth <= 1 || n < 2 {
		panic(fmt.Sprintf("metricsplane: histogram geometry first=%g growth=%g buckets=%d", first, growth, n))
	}
	return &Histogram{
		first:  first,
		growth: growth,
		invLog: 1 / math.Log(growth),
		counts: make([]atomic.Uint64, n),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// bucketOf maps a sample to its bucket index.
func (h *Histogram) bucketOf(v float64) int {
	if v <= h.first {
		return 0
	}
	i := 1 + int(math.Log(v/h.first)*h.invLog)
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// UpperBound returns bucket i's inclusive upper boundary (+Inf for the
// last bucket).
func (h *Histogram) UpperBound(i int) float64 {
	if i >= len(h.counts)-1 {
		return math.Inf(1)
	}
	return h.first * math.Pow(h.growth, float64(i))
}

// Count returns total observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the summed samples (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 on nil or empty) by linear
// interpolation within the owning bucket, like metrics.Histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.UpperBound(i - 1)
			}
			hi := h.UpperBound(i)
			if math.IsInf(hi, 1) {
				return lo
			}
			frac := float64(rank-cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return h.UpperBound(len(h.counts) - 1)
}

// snapshot copies the bucket state for exporters.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: make([]float64, len(h.counts)),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Bounds[i] = h.UpperBound(i)
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	// The atomic count/sum pair may be mid-update during a live scrape;
	// derive the count from the bucket copy so buckets and count agree.
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// HistSnapshot is a point-in-time histogram copy: per-bucket (not
// cumulative) counts with their inclusive upper bounds.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Default latency-histogram geometry: ~1 µs resolution at the low end,
// geometric 1.5 growth, spanning far past the longest deadline-bounded
// fill.
const (
	DefaultLatencyFirstUs = 1.0
	DefaultLatencyGrowth  = 1.5
	DefaultLatencyBuckets = 40
)
