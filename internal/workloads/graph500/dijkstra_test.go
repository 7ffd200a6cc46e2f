package graph500

import (
	"container/heap"
	"math"
)

// distHeap is a binary heap for the Dijkstra reference implementation.
type distHeap struct {
	v []int64
	d []float64
}

func (h *distHeap) Len() int           { return len(h.v) }
func (h *distHeap) Less(i, j int) bool { return h.d[i] < h.d[j] }
func (h *distHeap) Swap(i, j int)      { h.v[i], h.v[j] = h.v[j], h.v[i]; h.d[i], h.d[j] = h.d[j], h.d[i] }
func (h *distHeap) Push(x interface{}) { panic("use push2") }
func (h *distHeap) Pop() interface{}   { panic("use pop2") }

func (h *distHeap) push2(v int64, d float64) {
	h.v = append(h.v, v)
	h.d = append(h.d, d)
	heap.Fix(h, len(h.v)-1)
}

func (h *distHeap) pop2() (int64, float64) {
	v, d := h.v[0], h.d[0]
	n := len(h.v) - 1
	h.Swap(0, n)
	h.v = h.v[:n]
	h.d = h.d[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return v, d
}

// Dijkstra is the exact reference the delta-stepping tests compare
// DeltaStepping against.
func Dijkstra(g *Graph, root int64) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	h := &distHeap{}
	h.push2(root, 0)
	for h.Len() > 0 {
		u, d := h.pop2()
		if d > dist[u] {
			continue
		}
		adj := g.Neighbors(u)
		ws := g.Weights(u)
		for i, v := range adj {
			if nd := d + ws[i]; nd < dist[v] {
				dist[v] = nd
				h.push2(v, nd)
			}
		}
	}
	return dist
}
