package main

import (
	"time"

	"thymesim/internal/axis"
	"thymesim/internal/cache"
	"thymesim/internal/dram"
	"thymesim/internal/ocapi"
	"thymesim/internal/pool"
	"thymesim/internal/sim"
)

// A rung times one layer's public hot-path operation in isolation. run
// performs n operations; the ladder reports the median ns/op of
// ladderReps repetitions after one untimed warm-up.
type rung struct {
	name string
	n    int
	run  func(n int)
}

const ladderReps = 5

// ladder is the per-layer microbenchmark set, on the handler path the
// datapath uses (AtH/AfterH, AccessSpanH), plus the closure path (At) for
// comparison.
var ladder = []rung{
	{"sim.dispatch_ns", 1 << 20, dispatchHandlers},
	{"sim.closure_dispatch_ns", 1 << 20, dispatchClosures},
	{"sim.wheel_arm_cancel_ns", 1 << 20, wheelArmCancel},
	{"axis.fifo_pushpop_ns", 1 << 21, fifoPushPop},
	{"ocapi.packet_getput_ns", 1 << 21, packetGetPut},
	{"ocapi.tag_alloc_ns", 1 << 20, tagAllocRelease},
	{"cache.access_stream_ns", 1 << 21, cacheStream},
	{"cache.access_random_ns", 1 << 21, cacheRandom},
	{"dram.access_ns", 1 << 18, dramAccess},
	{"pool.alloc_free_ns", 1 << 18, allocFree},
}

// runLadder returns each rung's median ns/op.
func runLadder() map[string]float64 {
	out := make(map[string]float64, len(ladder))
	for _, r := range ladder {
		r.run(r.n / 8)
		ns := make([]float64, ladderReps)
		for i := range ns {
			t := time.Now()
			r.run(r.n)
			ns[i] = float64(time.Since(t).Nanoseconds()) / float64(r.n)
		}
		out[r.name] = median(ns)
	}
	return out
}

// heapDepth is the number of events kept pending while dispatch is timed,
// about one MSHR window of in-flight fills.
const heapDepth = 128

// hop is a handler that reschedules itself until the shared budget runs
// out, at pseudo-random delays so the heap keeps reordering.
type hop struct {
	k    *sim.Kernel
	left *int
	x    uint64
}

func (h *hop) Handle(uint64) {
	if *h.left == 0 {
		return
	}
	*h.left--
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	h.k.AfterH(sim.Duration(1+h.x%1000)*sim.Nanosecond, h, 0)
}

func dispatchHandlers(n int) {
	k := sim.NewKernel()
	left := n - heapDepth
	for i := 0; i < heapDepth; i++ {
		k.AtH(sim.Time(i+1), &hop{k: k, left: &left, x: uint64(i)*0x9E3779B97F4A7C15 | 1}, 0)
	}
	k.Run()
}

func dispatchClosures(n int) {
	k := sim.NewKernel()
	left := n - heapDepth
	for i := 0; i < heapDepth; i++ {
		x := uint64(i)*0x9E3779B97F4A7C15 | 1
		var fn func()
		fn = func() {
			if left == 0 {
				return
			}
			left--
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.After(sim.Duration(1+x%1000)*sim.Nanosecond, fn)
		}
		k.At(sim.Time(i+1), fn)
	}
	k.Run()
}

type nopHandler struct{}

func (nopHandler) Handle(uint64) {}

// wheelArmCancel arms and cancels a fill-deadline-sized timer, with a
// window's worth of other timers pending as the ARQ keeps them.
func wheelArmCancel(n int) {
	k := sim.NewKernel()
	var h nopHandler
	for i := 0; i < heapDepth; i++ {
		k.ArmTimer(sim.Duration(i+1)*sim.Microsecond, h, 0)
	}
	for i := 0; i < n; i++ {
		k.CancelTimer(k.ArmTimer(200*sim.Microsecond, h, 0))
	}
}

func fifoPushPop(n int) {
	f := axis.NewFIFO("ladder", 256)
	b := axis.Beat{Bytes: ocapi.CacheLineSize, Last: true}
	for i := 0; i < 8; i++ {
		f.TryPush(b)
	}
	for i := 0; i < n; i++ {
		f.TryPush(b)
		f.Pop()
	}
}

func packetGetPut(n int) {
	var pp ocapi.PacketPool
	for i := 0; i < n; i++ {
		pp.Put(pp.Get())
	}
}

func tagAllocRelease(n int) {
	a := ocapi.NewTagAllocator(256)
	for i := 0; i < heapDepth; i++ {
		a.Alloc()
	}
	for i := 0; i < n; i++ {
		t, _ := a.Alloc()
		a.Release(t)
	}
}

// llc is the benchmark workloads' cache geometry (core.Default()).
var llc = cache.Config{SizeBytes: 64 << 10, Ways: 4, LineSize: ocapi.CacheLineSize}

func cacheStream(n int) {
	c := cache.New(llc)
	for i := 0; i < n; i++ {
		c.Access(uint64(i)*ocapi.CacheLineSize, i&1 == 0)
	}
}

func cacheRandom(n int) {
	c := cache.New(llc)
	rng := sim.NewRand(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		// A 1 MiB footprint: mostly misses with some reuse, like kv-remote.
		addrs[i] = uint64(rng.Intn(1<<13)) * ocapi.CacheLineSize
	}
	for i := 0; i < n; i++ {
		c.Access(addrs[i&4095], i&3 == 0)
	}
}

// dramAccess issues batches of line accesses on the handler path and
// drains the kernel after each, so the time includes the channel queueing
// and completion events of a real access.
func dramAccess(n int) {
	k := sim.NewKernel()
	d := dram.New(k, dram.AC922Config())
	var h nopHandler
	const batch = 64
	for i := 0; i < n; i += batch {
		for j := 0; j < batch; j++ {
			addr := uint64(i+j) * ocapi.CacheLineSize
			d.AccessSpanH(addr, ocapi.CacheLineSize, j&1 == 0, nil, 0, h, 0)
		}
		k.Run()
	}
}

// allocFree allocates and frees a region on a 4 MiB reservation
// fragmented into alternating holes, as rack-churn leaves it.
func allocFree(n int) {
	a, err := pool.NewAllocator(0, 0, 4<<20, ocapi.CacheLineSize)
	if err != nil {
		panic(err)
	}
	var segs []pool.Segment
	for {
		s, err := a.Alloc(64 << 10)
		if err != nil {
			break
		}
		segs = append(segs, s)
	}
	for i := 0; i < len(segs); i += 2 {
		if err := a.Free(segs[i]); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		s, err := a.Alloc(64 << 10)
		if err != nil {
			panic(err)
		}
		if err := a.Free(s); err != nil {
			panic(err)
		}
	}
}
