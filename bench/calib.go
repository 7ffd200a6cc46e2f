package main

import (
	"container/heap"
	"math"
	"time"
)

// Host speed on shared machines drifts by tens of percent within minutes,
// mostly through contention for caches and memory bandwidth that other
// tenants cause. A run therefore times a fixed calibration workload next
// to every unit and reports the unit's time scaled by calRef / calibration
// time: seconds as the unit would take on the reference host in its
// reference state. The calibration code lives here, frozen, so no change
// to the simulator can move it. Raw wall times are reported beside the
// scaled ones.

// elasticity is how strongly a workload's time moves with host speed,
// relative to the calibration: a unit is scaled by (calRef/cal)^elasticity.
// Over 8-minute probes, 20-second window medians of rack-churn moved 1.21
// and 1.29 times as much as the calibration in log terms, the other
// workloads 0.9-1.2 times; rack-churn's larger working set plausibly
// leaves it more exposed to other tenants' cache pressure.
var elasticity = map[string]float64{wStream: 1, wKV: 1, wChurn: 1.25, wRegen: 1}

// hostScale converts a duration measured while the calibration read cal
// seconds into reference-host seconds for the named workload.
func hostScale(name string, cal float64) float64 {
	return math.Pow(calRef/cal, elasticity[name])
}

// calRef is a typical calibration time, in seconds, on the reference host
// (a 2-vCPU Xeon guest, go1.24.0), where readings ranged from about 4.7 to
// 7.8 ms as the host drifted.
const calRef = 0.0055

// calibrate runs the calibration workload and returns its duration in
// seconds: the geometric mean of a dependent-load chase through a 4 MiB
// table and an event-heap loop with map updates and allocation, which
// together track how the simulator's own speed moves with the host.
func calibrate() float64 {
	t := time.Now()
	calSink += uint64(calChase(1 << 20))
	chase := time.Since(t).Seconds()
	t = time.Now()
	calSink += calEvents(1 << 15)
	events := time.Since(t).Seconds()
	return math.Sqrt(chase * events)
}

var (
	calSink  uint64
	calTable = make([]uint32, 1<<20)
)

// calChase fills the table with a pseudo-random permutation walk and
// follows n dependent loads through it.
func calChase(n int) uint32 {
	for i := range calTable {
		calTable[i] = uint32(i*2654435761) & (1<<20 - 1)
	}
	var j, s uint32
	for i := 0; i < n; i++ {
		j = calTable[j]
		s += j
	}
	return s
}

type calEvent struct {
	at, seq uint64
	p       *[4]uint64
}

type calHeap []calEvent

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// calEvents runs n steps of a 128-deep event heap: pop, update a map,
// reschedule at a pseudo-random delay, allocating now and then.
func calEvents(n int) uint64 {
	h := &calHeap{}
	m := map[uint64]uint64{}
	for i := 0; i < heapDepth; i++ {
		heap.Push(h, calEvent{at: uint64(i), seq: uint64(i), p: new([4]uint64)})
	}
	x, s := uint64(1), uint64(0)
	for i := 0; i < n; i++ {
		e := heap.Pop(h).(calEvent)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&4095] += e.at
		s += e.p[0]
		p := e.p
		if i%16 == 0 {
			p = new([4]uint64)
		}
		heap.Push(h, calEvent{at: e.at + 1 + x%1000, seq: uint64(i + heapDepth), p: p})
	}
	return s + uint64(len(m))
}
