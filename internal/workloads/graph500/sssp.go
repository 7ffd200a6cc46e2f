package graph500

import "math"

// SSSPResult holds the output of kernel 3: distances and parents, plus the
// per-phase relaxation sets used by the memory replay.
type SSSPResult struct {
	Root   int64
	Dist   []float64 // +Inf = unreached
	Parent []int64   // -1 = unreached
	// Phases[k] is the set of vertices settled/relaxed in delta-stepping
	// phase k (bucket processing round).
	Phases [][]int64
	// Relaxations counts edge relaxation attempts.
	Relaxations int64
}

// DeltaStepping runs single-source shortest paths with the delta-stepping
// algorithm (the Graph500 reference SSSP), bucketing vertices by
// distance/delta and separating light (< delta) from heavy edges within a
// bucket.
func DeltaStepping(g *Graph, root int64, delta float64) *SSSPResult {
	if delta <= 0 {
		panic("graph500: delta must be positive")
	}
	res := &SSSPResult{
		Root:   root,
		Dist:   make([]float64, g.N),
		Parent: make([]int64, g.N),
	}
	for i := range res.Dist {
		res.Dist[i] = math.Inf(1)
		res.Parent[i] = -1
	}
	res.Dist[root] = 0
	res.Parent[root] = root

	buckets := map[int64][]int64{0: {root}}
	inBucket := make([]int64, g.N) // bucket index + 1 (0 = none)
	inBucket[root] = 1
	maxBucket := int64(0)

	relax := func(v int64, d float64, parent int64) {
		res.Relaxations++
		if d < res.Dist[v] {
			res.Dist[v] = d
			res.Parent[v] = parent
			b := int64(d / delta)
			buckets[b] = append(buckets[b], v)
			inBucket[v] = b + 1
			if b > maxBucket {
				maxBucket = b
			}
		}
	}

	for b := int64(0); b <= maxBucket; b++ {
		var settled []int64
		// Light-edge phases: re-process the bucket until it stops
		// refilling.
		for len(buckets[b]) > 0 {
			req := buckets[b]
			buckets[b] = nil
			var phase []int64
			for _, u := range req {
				// Skip stale entries that moved to an earlier bucket.
				if int64(res.Dist[u]/delta) != b {
					continue
				}
				phase = append(phase, u)
				adj := g.Neighbors(u)
				ws := g.Weights(u)
				for i, v := range adj {
					if ws[i] < delta {
						relax(v, res.Dist[u]+ws[i], u)
					}
				}
			}
			if len(phase) > 0 {
				res.Phases = append(res.Phases, phase)
				settled = append(settled, phase...)
			}
		}
		// Heavy-edge phase over everything settled in this bucket.
		var heavyPhase []int64
		for _, u := range settled {
			adj := g.Neighbors(u)
			ws := g.Weights(u)
			touched := false
			for i, v := range adj {
				if ws[i] >= delta {
					relax(v, res.Dist[u]+ws[i], u)
					touched = true
				}
			}
			if touched {
				heavyPhase = append(heavyPhase, u)
			}
		}
		if len(heavyPhase) > 0 {
			res.Phases = append(res.Phases, heavyPhase)
		}
	}
	return res
}
