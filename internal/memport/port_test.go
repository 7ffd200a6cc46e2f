package memport

import (
	"testing"

	"thymesim/internal/cache"
	"thymesim/internal/dram"
	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

func testLLC() *cache.Cache {
	return cache.New(cache.Config{SizeBytes: 16 << 10, Ways: 2, LineSize: ocapi.CacheLineSize})
}

// fakeBackend completes reads/writes after a fixed latency.
type fakeBackend struct {
	k       *sim.Kernel
	latency sim.Duration
	reads   int
	writes  int
	maxOut  int
	out     int
}

func (f *fakeBackend) ReadLine(addr uint64, sp obs.SpanID, h sim.Handler, arg uint64) {
	f.reads++
	f.out++
	if f.out > f.maxOut {
		f.maxOut = f.out
	}
	f.k.After(f.latency, func() {
		f.out--
		if h != nil {
			h.Handle(arg)
		}
	})
}

func (f *fakeBackend) WriteLine(addr uint64, h sim.Handler, arg uint64) {
	f.writes++
	f.k.After(f.latency, func() {
		if h != nil {
			h.Handle(arg)
		}
	})
}

// readLine and writeLine issue one untraced line operation on b that
// calls done (nil allowed) on completion.
func readLine(b LineBackend, addr uint64, done func()) { b.ReadLine(addr, 0, handler(done), 0) }

func writeLine(b LineBackend, addr uint64, done func()) { b.WriteLine(addr, handler(done), 0) }

func handler(done func()) sim.Handler {
	if done == nil {
		return nil
	}
	return sim.Func(done)
}

func TestHierarchyHitIsImmediate(t *testing.T) {
	k := sim.NewKernel()
	fb := &fakeBackend{k: k, latency: 100 * sim.Nanosecond}
	h := NewHierarchy(k, testLLC(), fb, 8)
	var firstDone, secondDone sim.Time
	k.At(0, func() {
		h.Access(0, 8, false, func() {
			firstDone = k.Now()
			h.Access(8, 8, false, func() { secondDone = k.Now() })
		})
	})
	k.Run()
	if firstDone != sim.Time(100*sim.Nanosecond) {
		t.Fatalf("miss completed at %v", firstDone)
	}
	if secondDone != firstDone {
		t.Fatalf("hit was not immediate: %v vs %v", secondDone, firstDone)
	}
	if fb.reads != 1 {
		t.Fatalf("reads = %d", fb.reads)
	}
}

func TestHierarchyMultiLineAccess(t *testing.T) {
	k := sim.NewKernel()
	fb := &fakeBackend{k: k, latency: 50 * sim.Nanosecond}
	h := NewHierarchy(k, testLLC(), fb, 8)
	done := false
	// 300 bytes spanning 4 lines starting mid-line.
	k.At(0, func() { h.Access(64, 300, false, func() { done = true }) })
	k.Run()
	if !done {
		t.Fatal("never completed")
	}
	if fb.reads != ocapi.LinesCovering(64, 300) {
		t.Fatalf("reads = %d, want %d", fb.reads, ocapi.LinesCovering(64, 300))
	}
}

func TestHierarchyMSHRWindowLimitsOutstanding(t *testing.T) {
	k := sim.NewKernel()
	fb := &fakeBackend{k: k, latency: sim.Duration(sim.Microsecond)}
	const window = 4
	h := NewHierarchy(k, testLLC(), fb, window)
	k.At(0, func() {
		for i := 0; i < 64; i++ {
			h.Access(uint64(i)*4096, 8, false, nil) // distinct sets, all miss
		}
	})
	k.Run()
	if fb.maxOut > window {
		t.Fatalf("outstanding fills reached %d, window is %d", fb.maxOut, window)
	}
	if fb.reads != 64 {
		t.Fatalf("reads = %d", fb.reads)
	}
}

func TestHierarchyWritebackTraffic(t *testing.T) {
	k := sim.NewKernel()
	fb := &fakeBackend{k: k, latency: 10 * sim.Nanosecond}
	// 1KiB cache: 4 sets, 2 ways.
	llc := cache.New(cache.Config{SizeBytes: 1024, Ways: 2, LineSize: 128})
	h := NewHierarchy(k, llc, fb, 8)
	k.At(0, func() {
		// Dirty two lines of set 0, then stream two more through it.
		h.Access(0, 8, true, nil)
		h.Access(4*128, 8, true, nil)
		h.Access(8*128, 8, false, nil)
		h.Access(12*128, 8, false, nil)
	})
	k.Run()
	if fb.writes != 2 {
		t.Fatalf("writebacks = %d, want 2", fb.writes)
	}
	if h.Stats().Writebacks != 2 {
		t.Fatalf("stats writebacks = %d", h.Stats().Writebacks)
	}
}

func TestHierarchyFillLatencyRecorded(t *testing.T) {
	k := sim.NewKernel()
	fb := &fakeBackend{k: k, latency: 2 * sim.Microsecond}
	h := NewHierarchy(k, testLLC(), fb, 8)
	k.At(0, func() { h.Access(0, 8, false, nil) })
	k.Run()
	if h.FillLatency().Count() != 1 {
		t.Fatal("fill latency not recorded")
	}
	if m := h.FillLatency().Mean(); m < 1.9 || m > 2.1 {
		t.Fatalf("fill latency = %v us, want ~2", m)
	}
}

func TestHierarchyBadSizePanics(t *testing.T) {
	k := sim.NewKernel()
	h := NewHierarchy(k, testLLC(), &fakeBackend{k: k}, 8)
	defer func() {
		if recover() == nil {
			t.Error("zero-size access did not panic")
		}
	}()
	h.Access(0, 0, false, nil)
}

func TestDRAMBackend(t *testing.T) {
	k := sim.NewKernel()
	mem := dram.New(k, dram.Config{Channels: 1, AccessLatency: 10 * sim.Nanosecond, BandwidthBps: 128e9, QueueDepth: 8})
	b := NewDRAMBackend(mem)
	var reads, writes int
	k.At(0, func() {
		readLine(b, 0, func() { reads++ })
		writeLine(b, 128, func() { writes++ })
	})
	k.Run()
	if reads != 1 || writes != 1 {
		t.Fatalf("reads=%d writes=%d", reads, writes)
	}
	if mem.Reads() != 1 || mem.Writes() != 1 {
		t.Fatalf("dram reads=%d writes=%d", mem.Reads(), mem.Writes())
	}
}

// fakeSender models the NIC interface with bounded space.
type fakeSender struct {
	space   int
	sent    []ocapi.Packet
	onSpace []func()
}

func (f *fakeSender) TrySend(p ocapi.Packet) bool {
	if f.space == 0 {
		return false
	}
	f.space--
	f.sent = append(f.sent, p)
	return true
}

func (f *fakeSender) OnCmdSpace(fn func()) { f.onSpace = append(f.onSpace, fn) }

func (f *fakeSender) free() {
	f.space++
	for _, fn := range f.onSpace {
		fn()
	}
}

func TestRemoteBackendTagFlowAndDelivery(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 100}
	b := NewRemoteBackend(k, fs, 4, 10*sim.Nanosecond, 0, 1)
	completions := 0
	k.At(0, func() {
		for i := 0; i < 6; i++ {
			readLine(b, uint64(i)*128, func() { completions++ })
		}
	})
	k.RunUntil(sim.Time(sim.Microsecond))
	// Only 4 tags: 4 sent, 2 queued.
	if len(fs.sent) != 4 || b.QueuedSends() != 2 {
		t.Fatalf("sent=%d queued=%d", len(fs.sent), b.QueuedSends())
	}
	// Deliver responses for the first two.
	for _, p := range fs.sent[:2] {
		resp := p.Response()
		k.Post(func() { b.Deliver(resp) })
	}
	k.Run()
	if completions != 2 {
		t.Fatalf("completions = %d", completions)
	}
	if len(fs.sent) != 6 {
		t.Fatalf("queued sends not drained: sent=%d", len(fs.sent))
	}
	if b.Reads() != 2 {
		t.Fatalf("reads = %d", b.Reads())
	}
}

func TestRemoteBackendRetriesOnNICSpace(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 1}
	b := NewRemoteBackend(k, fs, 8, 0, 0, 1)
	k.At(0, func() {
		readLine(b, 0, nil)
		readLine(b, 128, nil)
	})
	k.Run()
	if len(fs.sent) != 1 {
		t.Fatalf("sent = %d, want 1 (NIC full)", len(fs.sent))
	}
	k.At(k.Now(), func() { fs.free() })
	k.Run()
	if len(fs.sent) != 2 {
		t.Fatalf("sent = %d after space freed", len(fs.sent))
	}
}

func TestRemoteBackendUnknownTagPanics(t *testing.T) {
	k := sim.NewKernel()
	b := NewRemoteBackend(k, &fakeSender{space: 1}, 2, 0, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("unknown tag did not panic")
		}
	}()
	b.Deliver(ocapi.Packet{Op: ocapi.OpReadResp, Tag: 7, Size: ocapi.CacheLineSize})
}

func TestRemoteBackendAddressAlignment(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 10}
	b := NewRemoteBackend(k, fs, 8, 0, 3, 9)
	k.At(0, func() { readLine(b, 1000, nil) })
	k.Run()
	if len(fs.sent) != 1 {
		t.Fatal("not sent")
	}
	p := fs.sent[0]
	if p.Addr != ocapi.LineAlign(1000) || p.Src != 3 || p.Dst != 9 || p.Op != ocapi.OpReadBlock {
		t.Fatalf("packet = %+v", p)
	}
}
