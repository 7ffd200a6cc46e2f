package graph500

import (
	"math"
	"testing"
	"testing/quick"

	"thymesim/internal/cluster"
	"thymesim/internal/sim"
)

func smallGraph(scale int, seed uint64) *Graph {
	rng := sim.NewRand(seed)
	e := GenerateKronecker(scale, 16, rng)
	return BuildCSR(e)
}

func TestKroneckerShape(t *testing.T) {
	rng := sim.NewRand(1)
	e := GenerateKronecker(10, 16, rng)
	if e.NumVertices() != 1024 {
		t.Fatalf("vertices = %d", e.NumVertices())
	}
	if e.NumEdges() != 16*1024 {
		t.Fatalf("edges = %d", e.NumEdges())
	}
	for i := range e.Src {
		if e.Src[i] < 0 || e.Src[i] >= 1024 || e.Dst[i] < 0 || e.Dst[i] >= 1024 {
			t.Fatalf("edge %d out of range: (%d,%d)", i, e.Src[i], e.Dst[i])
		}
		if e.Weight[i] < 0 || e.Weight[i] >= 1 {
			t.Fatalf("weight %v out of range", e.Weight[i])
		}
	}
}

func TestKroneckerSkewedDegrees(t *testing.T) {
	// R-MAT graphs have heavy-tailed degree distributions: the max degree
	// should be far above the mean (16*2 with symmetrization).
	g := smallGraph(12, 2)
	var maxDeg int64
	for v := int64(0); v < g.N; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 200 {
		t.Fatalf("max degree %d: not heavy-tailed", maxDeg)
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a := GenerateKronecker(8, 4, sim.NewRand(7))
	b := GenerateKronecker(8, 4, sim.NewRand(7))
	for i := range a.Src {
		if a.Src[i] != b.Src[i] || a.Dst[i] != b.Dst[i] || a.Weight[i] != b.Weight[i] {
			t.Fatal("same-seed generation diverged")
		}
	}
}

func TestCSRSymmetryAndSelfLoops(t *testing.T) {
	e := &EdgeList{Scale: 2, EdgeFactor: 1,
		Src:    []int64{0, 1, 2, 3},
		Dst:    []int64{1, 2, 2, 0},
		Weight: []float64{0.1, 0.2, 0.9, 0.4},
	}
	g := BuildCSR(e)
	// Edge (2,2) is a self-loop: dropped. Each other edge appears twice.
	if int64(len(g.Adj)) != 6 {
		t.Fatalf("adj len = %d, want 6", len(g.Adj))
	}
	if g.Degree(2) != 1 { // only (1,2)
		t.Fatalf("deg(2) = %d", g.Degree(2))
	}
	found := false
	for _, v := range g.Neighbors(1) {
		if v == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("reverse edge (1,0) missing")
	}
}

func TestBFSTreeValid(t *testing.T) {
	g := smallGraph(10, 3)
	roots := PickRoots(g, 4, sim.NewRand(4))
	if len(roots) != 4 {
		t.Fatalf("roots = %d", len(roots))
	}
	for _, root := range roots {
		r := BFS(g, root)
		if err := ValidateBFS(g, r); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if r.Reached() < 2 {
			t.Fatalf("root %d reached only %d", root, r.Reached())
		}
	}
}

func TestValidateBFSCatchesCorruption(t *testing.T) {
	g := smallGraph(8, 5)
	root := PickRoots(g, 1, sim.NewRand(6))[0]
	r := BFS(g, root)
	// Corrupt a level.
	for v := int64(0); v < g.N; v++ {
		if r.Parent[v] != -1 && v != root {
			r.Level[v] += 5
			break
		}
	}
	if err := ValidateBFS(g, r); err == nil {
		t.Fatal("corrupted level accepted")
	}
}

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := smallGraph(9, seed)
		root := PickRoots(g, 1, sim.NewRand(seed+10))[0]
		ds := DeltaStepping(g, root, 0.1)
		exact := Dijkstra(g, root)
		if err := ValidateSSSP(g, ds, exact); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Property: delta-stepping equals Dijkstra for any delta.
func TestDeltaSteppingDeltaInvariantProperty(t *testing.T) {
	f := func(seed uint16, deltaRaw uint8) bool {
		delta := 0.02 + float64(deltaRaw)/256.0
		g := smallGraph(7, uint64(seed)+1)
		root := PickRoots(g, 1, sim.NewRand(uint64(seed)+99))
		if len(root) == 0 {
			return true
		}
		ds := DeltaStepping(g, root[0], delta)
		exact := Dijkstra(g, root[0])
		for v := int64(0); v < g.N; v++ {
			if math.IsInf(ds.Dist[v], 1) != math.IsInf(exact[v], 1) {
				return false
			}
			if !math.IsInf(exact[v], 1) && math.Abs(ds.Dist[v]-exact[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceAndFootprint(t *testing.T) {
	g := smallGraph(8, 11)
	g.Place(0x1000_0000)
	if g.offAddr(0) != 0x1000_0000 {
		t.Fatalf("offs base = %#x", g.offAddr(0))
	}
	if g.adjAddr(0) <= g.offAddr(g.N) {
		t.Fatal("adjacency overlaps offsets")
	}
	if g.stateAddr(0) <= g.adjAddr(int64(len(g.Adj))-1) {
		t.Fatal("state overlaps adjacency")
	}
	fp := g.Footprint()
	wantMin := uint64(len(g.Offs))*8 + uint64(len(g.Adj))*16 + uint64(g.N)*16
	if fp < wantMin {
		t.Fatalf("footprint %d < %d", fp, wantMin)
	}
}

func testbed(period int64) *cluster.Testbed {
	cfg := cluster.DefaultConfig(period)
	cfg.LLC.SizeBytes = 256 << 10
	cfg.LLC.Ways = 4
	return cluster.NewTestbed(cfg)
}

func runG500(t *testing.T, period int64, remote bool) *RunResult {
	t.Helper()
	tb := testbed(period)
	var base uint64
	var h = tb.NewLocalHierarchy()
	if remote {
		base = tb.RemoteAddr(0)
		h = tb.NewRemoteHierarchy()
	}
	cfg := DefaultConfig(base)
	cfg.Scale = 9
	cfg.Roots = 1
	r := New(tb.K, h, cfg)
	var out *RunResult
	tb.K.At(0, func() { r.Run(func(res *RunResult) { out = res }) })
	tb.K.Run()
	if out == nil {
		t.Fatal("graph500 did not complete")
	}
	return out
}

func TestRunCompletesWithValidation(t *testing.T) {
	res := runG500(t, 1, true)
	if len(res.BFS) != 1 || len(res.SSSP) != 1 {
		t.Fatalf("results: bfs=%d sssp=%d", len(res.BFS), len(res.SSSP))
	}
	if res.MeanBFSTime <= 0 || res.MeanSSSPTime <= 0 {
		t.Fatalf("times: %v/%v", res.MeanBFSTime, res.MeanSSSPTime)
	}
	if res.BFS[0].TEPS <= 0 {
		t.Fatal("TEPS not computed")
	}
}

func TestRemoteSlowerThanLocal(t *testing.T) {
	local := runG500(t, 1, false)
	remote := runG500(t, 1, true)
	ratio := float64(remote.MeanBFSTime) / float64(local.MeanBFSTime)
	// Paper Table I: ~6x at PERIOD=1. Accept the regime 2-20x.
	if ratio < 2 || ratio > 20 {
		t.Fatalf("remote/local BFS ratio = %v, want ~6x regime", ratio)
	}
}

func TestHighDelayCatastrophicForBFS(t *testing.T) {
	local := runG500(t, 1, false)
	slow := runG500(t, 1000, true)
	ratio := float64(slow.MeanBFSTime) / float64(local.MeanBFSTime)
	// Paper Table I: 2209x at PERIOD=1000. Accept two-orders-plus.
	if ratio < 100 {
		t.Fatalf("PERIOD=1000 BFS ratio = %v, want >100x", ratio)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	tb := testbed(1)
	h := tb.NewLocalHierarchy()
	called := false
	src := &bfsTrace{g: &Graph{N: 1, Offs: []int64{0, 0}, adjBase: 1}, r: &BFSResult{}, cost: DefaultCostModel()}
	tb.K.At(0, func() {
		Replay(tb.K, h, src, 8, func(d sim.Duration) { called = true })
	})
	tb.K.Run()
	if !called {
		t.Fatal("empty replay never completed")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Scale: 0, EdgeFactor: 1, Roots: 1, Delta: 0.1, Window: 1},
		{Scale: 5, EdgeFactor: 0, Roots: 1, Delta: 0.1, Window: 1},
		{Scale: 5, EdgeFactor: 1, Roots: 0, Delta: 0.1, Window: 1},
		{Scale: 5, EdgeFactor: 1, Roots: 1, Delta: 0, Window: 1},
		{Scale: 5, EdgeFactor: 1, Roots: 1, Delta: 0.1, Window: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPickRootsDistinctNonZeroDegree(t *testing.T) {
	g := smallGraph(8, 13)
	roots := PickRoots(g, 8, sim.NewRand(14))
	seen := map[int64]bool{}
	for _, r := range roots {
		if seen[r] {
			t.Fatal("duplicate root")
		}
		seen[r] = true
		if g.Degree(r) == 0 {
			t.Fatal("zero-degree root")
		}
	}
}

func TestMultiRootRunStats(t *testing.T) {
	tb := testbed(1)
	cfg := DefaultConfig(tb.RemoteAddr(0))
	cfg.Scale = 9
	cfg.Roots = 4
	r := New(tb.K, tb.NewRemoteHierarchy(), cfg)
	var out *RunResult
	tb.K.At(0, func() { r.Run(func(res *RunResult) { out = res }) })
	tb.K.Run()
	if len(out.BFS) != 4 || len(out.SSSP) != 4 {
		t.Fatalf("kernels = %d/%d", len(out.BFS), len(out.SSSP))
	}
	for i, k := range out.BFS {
		if k.TEPS <= 0 {
			t.Fatalf("root %d: TEPS = %v", i, k.TEPS)
		}
	}
}
