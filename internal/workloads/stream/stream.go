// Package stream implements the STREAM benchmark (McCalpin) against the
// simulated memory hierarchy: the four kernels (copy, scale, add, triad)
// run real floating-point math over real Go slices, while their memory
// traffic is replayed line-by-line through a memport.Hierarchy so the
// simulated clock advances exactly as the modelled hardware would.
//
// Paper configuration (§IV-A): 10 M elements (~0.2 GiB), beyond the
// 120 MiB LLC, so every line streams through the cache with one fill per
// line. The scaled-down defaults preserve that property against the
// modelled LLC.
package stream

import (
	"fmt"
	"math"

	"thymesim/internal/memport"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// Kernel identifies one STREAM kernel.
type Kernel int

// The four kernels, in canonical order.
const (
	Copy Kernel = iota
	Scale
	Add
	Triad
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case Copy:
		return "copy"
	case Scale:
		return "scale"
	case Add:
		return "add"
	case Triad:
		return "triad"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// bytesPerElement returns the STREAM-accounted traffic per iteration:
// copy/scale move 16 B (1 read + 1 write), add/triad 24 B (2 reads +
// 1 write), per §IV-A.
func (k Kernel) bytesPerElement() int {
	switch k {
	case Copy, Scale:
		return 16
	default:
		return 24
	}
}

const scalar = 3.0

// Config parameterizes a STREAM run.
type Config struct {
	// Elements per array (paper: 10_000_000).
	Elements int
	// Iterations of the four-kernel sequence.
	Iterations int
	// Window bounds software-visible outstanding line groups (OoO window +
	// prefetch depth); the MSHR pool below it is usually the binding limit.
	Window int
	// BaseAddr is where the three arrays are placed in the address space
	// (use Testbed.RemoteAddr(0) for disaggregated memory, any local
	// address for the local baseline).
	BaseAddr uint64
}

// DefaultConfig returns a scaled-down configuration that preserves the
// paper's "working set beyond LLC" property.
// The default window matches the hardware MSHR window (129 fills => BDP
// ~= 16.5 kB): the CPU cannot expose more outstanding misses than its
// MSHRs, so a larger software window would only queue in front of them.
func DefaultConfig(baseAddr uint64) Config {
	return Config{Elements: 1 << 17, Iterations: 1, Window: 128, BaseAddr: baseAddr}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Elements < elemsPerLine {
		return fmt.Errorf("stream: Elements = %d (need >= %d)", c.Elements, elemsPerLine)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("stream: Iterations = %d", c.Iterations)
	}
	if c.Window <= 0 {
		return fmt.Errorf("stream: Window = %d", c.Window)
	}
	if c.BaseAddr%ocapi.CacheLineSize != 0 {
		return fmt.Errorf("stream: BaseAddr %#x not line-aligned", c.BaseAddr)
	}
	return nil
}

// Result reports one kernel's measured performance.
type Result struct {
	Kernel       Kernel
	Bytes        uint64       // STREAM-accounted bytes moved
	Elapsed      sim.Duration // simulated kernel time
	BandwidthBps float64
	// AvgFillLatencyUs is the mean line-fill latency observed during the
	// kernel, in microseconds — the "latency measured by STREAM" of
	// Fig. 2.
	AvgFillLatencyUs float64
	LineFills        uint64
}

const (
	elemBytes    = 8
	elemsPerLine = ocapi.CacheLineSize / elemBytes
)

// Runner executes STREAM against one hierarchy.
type Runner struct {
	k   *sim.Kernel
	h   *memport.Hierarchy
	cfg Config

	a, b, c []float64
	results []Result
}

// New allocates the arrays (initialized per STREAM: a=1, b=2, c=0) and
// returns a runner.
func New(k *sim.Kernel, h *memport.Hierarchy, cfg Config) *Runner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Runner{k: k, h: h, cfg: cfg}
	r.a = make([]float64, cfg.Elements)
	r.b = make([]float64, cfg.Elements)
	r.c = make([]float64, cfg.Elements)
	for i := range r.a {
		r.a[i] = 1
		r.b[i] = 2
	}
	return r
}

// Results returns results recorded so far (one per kernel per iteration).
func (r *Runner) Results() []Result { return r.results }

// arrayBase returns the simulated address of array idx (0=a, 1=b, 2=c).
// Arrays are laid out back to back, line-aligned.
func (r *Runner) arrayBase(idx int) uint64 {
	span := uint64((r.cfg.Elements*elemBytes + ocapi.CacheLineSize - 1) &^ (ocapi.CacheLineSize - 1))
	return r.cfg.BaseAddr + uint64(idx)*span
}

// Run executes Iterations of the four kernels and calls done with all
// results.
func (r *Runner) Run(done func([]Result)) {
	iter := 0
	var runIter func()
	runIter = func() {
		r.runKernel(Copy, func() {
			r.runKernel(Scale, func() {
				r.runKernel(Add, func() {
					r.runKernel(Triad, func() {
						iter++
						if iter < r.cfg.Iterations {
							runIter()
							return
						}
						if err := r.Check(); err != nil {
							panic(err)
						}
						done(r.results)
					})
				})
			})
		})
	}
	runIter()
}

// lineGroup computes the real math for elements [lo, hi) of the kernel and
// returns the (addr, write) accesses the group generates.
func (r *Runner) compute(kern Kernel, lo, hi int) {
	switch kern {
	case Copy:
		copy(r.c[lo:hi], r.a[lo:hi])
	case Scale:
		for i := lo; i < hi; i++ {
			r.b[i] = scalar * r.c[i]
		}
	case Add:
		for i := lo; i < hi; i++ {
			r.c[i] = r.a[i] + r.b[i]
		}
	case Triad:
		for i := lo; i < hi; i++ {
			r.a[i] = r.b[i] + scalar*r.c[i]
		}
	}
}

// accesses returns the per-line-group memory operations of a kernel:
// (arrayIndex, write) pairs.
func (kern Kernel) accesses() [](struct {
	arr   int
	write bool
}) {
	type op = struct {
		arr   int
		write bool
	}
	switch kern {
	case Copy: // c = a
		return []op{{0, false}, {2, true}}
	case Scale: // b = s*c
		return []op{{2, false}, {1, true}}
	case Add: // c = a + b
		return []op{{0, false}, {1, false}, {2, true}}
	default: // Triad: a = b + s*c
		return []op{{1, false}, {2, false}, {0, true}}
	}
}

// runKernel streams the kernel through the hierarchy with a bounded issue
// window and records a Result.
func (r *Runner) runKernel(kern Kernel, done func()) {
	start := r.k.Now()
	startFills := r.h.Stats().LineFills
	startHist := r.h.FillLatency().Count()
	startLatSum := r.h.FillLatency().Sum()

	lines := (r.cfg.Elements + elemsPerLine - 1) / elemsPerLine
	ops := kern.accesses()
	idx := 0
	inflight := 0
	pumping := false
	finished := false

	var pump func()
	// One completion closure for the whole kernel: Access must not be
	// handed a fresh closure per line group on the hot path.
	accessDone := func() {
		inflight--
		pump()
	}
	pump = func() {
		if pumping {
			return
		}
		pumping = true
		for inflight < r.cfg.Window && idx < lines {
			lo := idx * elemsPerLine
			hi := lo + elemsPerLine
			if hi > r.cfg.Elements {
				hi = r.cfg.Elements
			}
			r.compute(kern, lo, hi)
			lineOff := uint64(idx * ocapi.CacheLineSize)
			n := uint64(hi - lo)
			for _, op := range ops {
				addr := r.arrayBase(op.arr) + lineOff
				inflight++
				r.h.Access(addr, int(n)*elemBytes, op.write, accessDone)
			}
			idx++
		}
		pumping = false
		if !finished && idx == lines && inflight == 0 {
			finished = true
			r.record(kern, start, startFills, startHist, startLatSum)
			done()
		}
	}
	pump()
}

func (r *Runner) record(kern Kernel, start sim.Time, startFills, histCount uint64, latSum float64) {
	elapsed := r.k.Now().Sub(start)
	bytes := uint64(r.cfg.Elements) * uint64(kern.bytesPerElement())
	fills := r.h.Stats().LineFills - startFills
	var avgLat float64
	if dc := r.h.FillLatency().Count() - histCount; dc > 0 {
		avgLat = (r.h.FillLatency().Sum() - latSum) / float64(dc)
	}
	res := Result{
		Kernel:           kern,
		Bytes:            bytes,
		Elapsed:          elapsed,
		BandwidthBps:     sim.PerSecond(float64(bytes), elapsed),
		AvgFillLatencyUs: avgLat,
		LineFills:        fills,
	}
	r.results = append(r.results, res)
}

// Check verifies array contents against the analytically expected values,
// as the reference STREAM implementation does.
func (r *Runner) Check() error {
	ea, eb, ec := 1.0, 2.0, 0.0
	for i := 0; i < r.cfg.Iterations; i++ {
		ec = ea          // copy
		eb = scalar * ec // scale
		ec = ea + eb     // add
		ea = eb + scalar*ec
	}
	for i := 0; i < r.cfg.Elements; i++ {
		if math.Abs(r.a[i]-ea) > 1e-8 || math.Abs(r.b[i]-eb) > 1e-8 || math.Abs(r.c[i]-ec) > 1e-8 {
			return fmt.Errorf("stream: validation failed at %d: got (%g,%g,%g), want (%g,%g,%g)",
				i, r.a[i], r.b[i], r.c[i], ea, eb, ec)
		}
	}
	return nil
}

// Summary aggregates per-kernel results: total STREAM bytes over total time
// and the mean of per-kernel fill latencies.
func Summary(results []Result) (bandwidthBps float64, avgFillLatencyUs float64) {
	var bytes uint64
	var elapsed sim.Duration
	var latSum float64
	var latN int
	for _, r := range results {
		bytes += r.Bytes
		elapsed += r.Elapsed
		if r.AvgFillLatencyUs > 0 {
			latSum += r.AvgFillLatencyUs
			latN++
		}
	}
	if latN > 0 {
		avgFillLatencyUs = latSum / float64(latN)
	}
	return sim.PerSecond(float64(bytes), elapsed), avgFillLatencyUs
}
