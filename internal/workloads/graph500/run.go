package graph500

import (
	"fmt"

	"thymesim/internal/memport"
	"thymesim/internal/sim"
)

// Config parameterizes a Graph500 run.
type Config struct {
	// Scale and EdgeFactor define the Kronecker graph (paper: 20 and 16).
	Scale      int
	EdgeFactor int
	// Roots is the number of search keys (spec: 64; scaled down for
	// simulation tractability).
	Roots int
	// Delta is the delta-stepping bucket width.
	Delta float64
	// Window bounds outstanding memory operations during replay (memory
	// level parallelism of the traversal loop).
	Window int
	// BaseAddr places the graph in simulated memory.
	BaseAddr uint64
	// Cost is the CPU-side cost model.
	Cost CostModel
	// Seed drives generation and root selection.
	Seed uint64
	// Check runs the spec validation after each kernel (skippable for
	// large sweeps).
	Check bool
}

// DefaultConfig returns a scaled-down but structurally faithful setup.
func DefaultConfig(baseAddr uint64) Config {
	return Config{
		Scale:      12,
		EdgeFactor: 16,
		Roots:      2,
		Delta:      0.1,
		Window:     32,
		BaseAddr:   baseAddr,
		Cost:       DefaultCostModel(),
		Seed:       0x9500,
		Check:      true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Scale < 1 || c.Scale > 30 {
		return fmt.Errorf("graph500: scale %d", c.Scale)
	}
	if c.EdgeFactor < 1 {
		return fmt.Errorf("graph500: edge factor %d", c.EdgeFactor)
	}
	if c.Roots < 1 {
		return fmt.Errorf("graph500: roots %d", c.Roots)
	}
	if c.Delta <= 0 {
		return fmt.Errorf("graph500: delta %v", c.Delta)
	}
	if c.Window < 1 {
		return fmt.Errorf("graph500: window %d", c.Window)
	}
	return nil
}

// KernelResult reports one timed kernel execution.
type KernelResult struct {
	Kernel  string // "bfs" or "sssp"
	Root    int64
	Elapsed sim.Duration
	// Edges is the number of input edges counted by the TEPS metric
	// (traversed edges for BFS, relaxations for SSSP).
	Edges int64
	TEPS  float64
}

// RunResult aggregates a full benchmark execution.
type RunResult struct {
	Graph *Graph
	BFS   []KernelResult
	SSSP  []KernelResult
	// MeanBFSTime and MeanSSSPTime are the per-root averages used as the
	// paper's job-completion-time metric.
	MeanBFSTime  sim.Duration
	MeanSSSPTime sim.Duration
}

// Runner executes Graph500 kernels against a hierarchy.
type Runner struct {
	k   *sim.Kernel
	h   *memport.Hierarchy
	cfg Config

	g     *Graph
	roots []int64
}

// New generates the graph (kernel 0), builds CSR (kernel 1), and places it
// at the configured base address.
func New(k *sim.Kernel, h *memport.Hierarchy, cfg Config) *Runner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := sim.NewRand(cfg.Seed)
	edges := GenerateKronecker(cfg.Scale, cfg.EdgeFactor, rng)
	g := BuildCSR(edges)
	g.Place(cfg.BaseAddr)
	roots := PickRoots(g, cfg.Roots, rng)
	if len(roots) == 0 {
		panic("graph500: no usable roots")
	}
	return &Runner{k: k, h: h, cfg: cfg, g: g, roots: roots}
}

// Graph exposes the constructed graph.
func (r *Runner) Graph() *Graph { return r.g }

// Roots exposes the chosen search keys.
func (r *Runner) Roots() []int64 { return r.roots }

// Run executes the timed BFS and SSSP kernels for every root and calls
// done with the aggregate result.
func (r *Runner) Run(done func(*RunResult)) {
	res := &RunResult{Graph: r.g}
	ri := 0
	var nextRoot func()
	nextRoot = func() {
		if ri == len(r.roots) {
			finish(res)
			done(res)
			return
		}
		root := r.roots[ri]
		ri++
		bfs := BFS(r.g, root)
		if r.cfg.Check {
			if err := ValidateBFS(r.g, bfs); err != nil {
				panic(err)
			}
		}
		Replay(r.k, r.h, NewBFSTrace(r.g, bfs, r.cfg.Cost), r.cfg.Window, func(elapsed sim.Duration) {
			res.BFS = append(res.BFS, KernelResult{
				Kernel:  "bfs",
				Root:    root,
				Elapsed: elapsed,
				Edges:   bfs.EdgesTouched,
				TEPS:    sim.PerSecond(float64(bfs.EdgesTouched), elapsed),
			})
			sssp := DeltaStepping(r.g, root, r.cfg.Delta)
			if r.cfg.Check {
				if err := ValidateSSSP(r.g, sssp, nil); err != nil {
					panic(err)
				}
			}
			Replay(r.k, r.h, NewSSSPTrace(r.g, sssp, r.cfg.Cost), r.cfg.Window, func(elapsed sim.Duration) {
				res.SSSP = append(res.SSSP, KernelResult{
					Kernel:  "sssp",
					Root:    root,
					Elapsed: elapsed,
					Edges:   sssp.Relaxations,
					TEPS:    sim.PerSecond(float64(sssp.Relaxations), elapsed),
				})
				nextRoot()
			})
		})
	}
	nextRoot()
}

func finish(res *RunResult) {
	var bsum, ssum sim.Duration
	for _, b := range res.BFS {
		bsum += b.Elapsed
	}
	for _, s := range res.SSSP {
		ssum += s.Elapsed
	}
	if n := len(res.BFS); n > 0 {
		res.MeanBFSTime = bsum / sim.Duration(n)
	}
	if n := len(res.SSSP); n > 0 {
		res.MeanSSSPTime = ssum / sim.Duration(n)
	}
}
