package tfnic

import (
	"testing"
	"testing/quick"

	"thymesim/internal/axis"
	"thymesim/internal/dram"
	"thymesim/internal/inject"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

func TestTranslatorBasics(t *testing.T) {
	var tr Translator
	w := Window{BorrowerBase: 0x1000, LenderBase: 0x8000, Size: 0x1000, LenderNode: 2}
	if err := tr.AddWindow(w); err != nil {
		t.Fatal(err)
	}
	node, addr, ok := tr.Translate(0x1080)
	if !ok || node != 2 || addr != 0x8080 {
		t.Fatalf("translate = %d %#x %v", node, addr, ok)
	}
	if _, _, ok := tr.Translate(0x0FFF); ok {
		t.Fatal("below window translated")
	}
	if _, _, ok := tr.Translate(0x2000); ok {
		t.Fatal("past window translated")
	}
	// Edges.
	if _, a, ok := tr.Translate(0x1000); !ok || a != 0x8000 {
		t.Fatal("window base mistranslated")
	}
	if _, a, ok := tr.Translate(0x1FFF); !ok || a != 0x8FFF {
		t.Fatal("window last byte mistranslated")
	}
}

func TestTranslatorRejectsBadWindows(t *testing.T) {
	var tr Translator
	if err := tr.AddWindow(Window{BorrowerBase: 0, LenderBase: 0, Size: 0}); err == nil {
		t.Error("empty window accepted")
	}
	if err := tr.AddWindow(Window{BorrowerBase: 5, LenderBase: 0, Size: 128}); err == nil {
		t.Error("unaligned base accepted")
	}
	if err := tr.AddWindow(Window{BorrowerBase: 0, LenderBase: 0, Size: 100}); err == nil {
		t.Error("unaligned size accepted")
	}
	must := func(w Window) {
		if err := tr.AddWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	must(Window{BorrowerBase: 0x1000, LenderBase: 0, Size: 0x1000})
	if err := tr.AddWindow(Window{BorrowerBase: 0x1800, LenderBase: 0, Size: 0x1000}); err == nil {
		t.Error("overlapping window accepted")
	}
	must(Window{BorrowerBase: 0x2000, LenderBase: 0, Size: 0x1000}) // adjacent OK
}

func TestTranslatorRemove(t *testing.T) {
	var tr Translator
	if err := tr.AddWindow(Window{BorrowerBase: 0x1000, LenderBase: 0, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	if !tr.RemoveWindow(0x1000) {
		t.Fatal("remove failed")
	}
	if tr.RemoveWindow(0x1000) {
		t.Fatal("double remove succeeded")
	}
	if _, _, ok := tr.Translate(0x1000); ok {
		t.Fatal("translated after removal")
	}
	if len(tr.Windows()) != 0 {
		t.Fatal("windows not empty")
	}
}

// Property: translation is a bijection offset-preserving map inside each
// window and fails outside all windows.
func TestTranslatorOffsetProperty(t *testing.T) {
	f := func(off uint16) bool {
		var tr Translator
		w := Window{BorrowerBase: 0x10000, LenderBase: 0x50000, Size: 0x10000, LenderNode: 1}
		if err := tr.AddWindow(w); err != nil {
			return false
		}
		addr := w.BorrowerBase + uint64(off)
		_, la, ok := tr.Translate(addr)
		return ok && la-w.LenderBase == uint64(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// loopNICs wires a borrower and lender NIC back to back with ideal links
// (direct FIFO moves) and returns both plus the kernel.
func loopNICs(t *testing.T, gate axis.Gate) (*sim.Kernel, *NIC, *NIC) {
	t.Helper()
	k := sim.NewKernel()
	mem := dram.New(k, dram.Config{Channels: 2, AccessLatency: 50 * sim.Nanosecond, BandwidthBps: 20e9, QueueDepth: 16})
	b := New(k, DefaultConfig(0), gate, nil)
	l := New(k, DefaultConfig(1), nil, mem)
	// Ideal wire: anything in TxQ moves to the peer RxQ immediately.
	connect := func(tx, rx *axis.FIFO) {
		move := func() {
			for tx.Len() > 0 && rx.Space() > 0 {
				beat, _ := tx.Pop()
				rx.Push(beat)
			}
		}
		tx.OnData(move)
		rx.OnSpace(move)
	}
	connect(b.TxQ, l.RxQ)
	connect(l.TxQ, b.RxQ)
	return k, b, l
}

func TestNICReadRoundTrip(t *testing.T) {
	k, b, l := loopNICs(t, nil)
	if err := b.Translator().AddWindow(Window{BorrowerBase: 0x10000, LenderBase: 0x80000, Size: 0x10000, LenderNode: 1}); err != nil {
		t.Fatal(err)
	}
	var got ocapi.Packet
	b.OnDeliver = func(p ocapi.Packet) { got = p }
	k.At(0, func() {
		ok := b.TrySend(ocapi.Packet{
			Op: ocapi.OpReadBlock, Tag: 5, Addr: 0x10000 + 256,
			Size: ocapi.CacheLineSize, Src: 0, Dst: 1, Issued: 0,
		})
		if !ok {
			t.Error("send rejected")
		}
	})
	k.Run()
	if got.Op != ocapi.OpReadResp || got.Tag != 5 {
		t.Fatalf("response = %+v", got)
	}
	// Borrower-side translation: lender must have served 0x80000+256.
	if l.Stats().RequestsServed != 1 {
		t.Fatalf("lender served = %d", l.Stats().RequestsServed)
	}
	if b.Stats().TranslationFaults != 0 {
		t.Fatalf("faults = %d", b.Stats().TranslationFaults)
	}
	if b.Stats().ResponsesDelivered != 1 {
		t.Fatalf("delivered = %d", b.Stats().ResponsesDelivered)
	}
}

func TestNICTranslationFaultCounted(t *testing.T) {
	k, b, _ := loopNICs(t, nil)
	done := false
	b.OnDeliver = func(ocapi.Packet) { done = true }
	k.At(0, func() {
		b.TrySend(ocapi.Packet{Op: ocapi.OpReadBlock, Tag: 1, Addr: 0xdead00, Size: ocapi.CacheLineSize, Src: 0, Dst: 1})
	})
	k.Run()
	if b.Stats().TranslationFaults != 1 {
		t.Fatalf("faults = %d", b.Stats().TranslationFaults)
	}
	if !done {
		t.Fatal("unmapped request not served at raw address")
	}
}

func TestNICWriteAck(t *testing.T) {
	k, b, l := loopNICs(t, nil)
	var got ocapi.Packet
	b.OnDeliver = func(p ocapi.Packet) { got = p }
	k.At(0, func() {
		b.TrySend(ocapi.Packet{Op: ocapi.OpWriteBlock, Tag: 9, Addr: 0, Size: ocapi.CacheLineSize, Src: 0, Dst: 1})
	})
	k.Run()
	if got.Op != ocapi.OpWriteAck || got.Tag != 9 {
		t.Fatalf("ack = %+v", got)
	}
	if l.Stats().RequestsServed != 1 {
		t.Fatal("write not served")
	}
}

func TestNICProbeServedWithoutMemory(t *testing.T) {
	k, b, l := loopNICs(t, nil)
	var got ocapi.Packet
	b.OnDeliver = func(p ocapi.Packet) { got = p }
	k.At(0, func() {
		b.TrySend(ocapi.Packet{Op: ocapi.OpProbe, Tag: 1, Src: 0, Dst: 1})
	})
	k.Run()
	if got.Op != ocapi.OpProbeResp {
		t.Fatalf("probe response = %+v", got)
	}
	if l.Stats().ProbesServed != 1 {
		t.Fatal("probe not counted")
	}
}

func TestNICInjectorThrottlesRequests(t *testing.T) {
	gate := inject.NewPeriodGate(100, inject.DefaultFPGACycle) // 400ns slots
	k, b, _ := loopNICs(t, gate)
	delivered := 0
	b.OnDeliver = func(ocapi.Packet) { delivered++ }
	const n = 50
	k.At(0, func() {
		for i := 0; i < n; i++ {
			if !b.TrySend(ocapi.Packet{Op: ocapi.OpReadBlock, Tag: uint32(i), Addr: uint64(i) * 128, Size: ocapi.CacheLineSize, Src: 0, Dst: 1}) {
				t.Fatal("cmdQ overflow")
			}
		}
	})
	end := k.Run()
	if delivered != n {
		t.Fatalf("delivered = %d", delivered)
	}
	// The injector bounds egress to one request per 400ns.
	minTime := sim.Time((n - 1) * 400 * int(sim.Nanosecond))
	if end < minTime {
		t.Fatalf("completed at %v, injector floor %v", end, minTime)
	}
	if b.InjectorTransfers() != n {
		t.Fatalf("injector transfers = %d", b.InjectorTransfers())
	}
}

func TestNICBackpressureWhenCmdQFull(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.QueueDepth = 2
	k := sim.NewKernel()
	gate := inject.NewPeriodGate(1000000, inject.DefaultFPGACycle) // ~never releases
	b := New(k, cfg, gate, nil)
	sent := 0
	k.At(0, func() {
		for i := 0; i < 10; i++ {
			if b.TrySend(ocapi.Packet{Op: ocapi.OpReadBlock, Tag: uint32(i), Addr: 0, Size: ocapi.CacheLineSize, Src: 0, Dst: 1}) {
				sent++
			}
		}
	})
	k.RunUntil(sim.Time(sim.Microsecond))
	if sent >= 10 {
		t.Fatalf("sent = %d, expected backpressure", sent)
	}
}

func TestNICResponsesBypassInjector(t *testing.T) {
	// A lender NIC with a pathological injector gate still returns
	// responses promptly: the injector only gates the request class.
	k := sim.NewKernel()
	mem := dram.New(k, dram.Config{Channels: 1, AccessLatency: 10 * sim.Nanosecond, BandwidthBps: 100e9, QueueDepth: 8})
	blockedGate := inject.NewPeriodGate(1_000_000, inject.DefaultFPGACycle)
	l := New(k, DefaultConfig(1), blockedGate, mem)
	// Push a request directly into the lender's RxQ, as if off the wire.
	k.At(0, func() {
		p := &ocapi.Packet{Op: ocapi.OpReadBlock, Tag: 3, Addr: 0, Size: ocapi.CacheLineSize, Src: 0, Dst: 1}
		l.RxQ.Push(axis.Beat{Bytes: int32(p.WireBytes()), Dest: 0, Pkt: p})
	})
	end := k.RunUntil(sim.Time(10 * sim.Microsecond))
	if l.TxQ.Len() != 1 {
		t.Fatalf("response not egressed (TxQ=%d) by %v", l.TxQ.Len(), end)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{FPGACycle: 0, PipelineLatency: 1, QueueDepth: 1},
		{FPGACycle: 1, PipelineLatency: -1, QueueDepth: 1},
		{FPGACycle: 1, PipelineLatency: 1, QueueDepth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultConfig(0).Validate(); err != nil {
		t.Error(err)
	}
}

// A request corrupted on the wire must be rejected by the lender's CRC
// check with a nack, never executed against memory.
func TestNICNacksCorruptRequests(t *testing.T) {
	// BER 0.5 over a 46-byte request makes corruption a near-certainty.
	gate := inject.NewBitErrorGate(nil, 0.5, sim.NewRand(3))
	k, b, l := loopNICs(t, gate)
	var got []ocapi.Packet
	b.OnDeliver = func(p ocapi.Packet) { got = append(got, p) }
	const n = 20
	k.At(0, func() {
		for i := 0; i < n; i++ {
			b.TrySend(ocapi.Packet{
				Op: ocapi.OpReadBlock, Tag: uint32(i), Addr: uint64(i) * ocapi.CacheLineSize,
				Size: ocapi.CacheLineSize, Src: 0, Dst: 1,
			})
		}
	})
	k.Run()
	if len(got) != n {
		t.Fatalf("deliveries = %d, want %d", len(got), n)
	}
	for _, p := range got {
		if p.Op != ocapi.OpNack || !p.Poison {
			t.Fatalf("delivery = %+v, want poisoned nack", p)
		}
	}
	if l.Stats().NacksSent != n || l.Stats().RequestsServed != 0 {
		t.Fatalf("lender stats = %+v", l.Stats())
	}
}

// TestTrySendRoutesByWindowLender is the regression test for the latent
// single-pair assumption where TrySend translated the address but dropped
// the window's lender node, so every block op went to the backend's
// statically stamped destination. With windows on different lenders, the
// packet destination must follow the address.
func TestTrySendRoutesByWindowLender(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, DefaultConfig(0), nil, nil)
	must := func(w Window) {
		if err := n.Translator().AddWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	must(Window{BorrowerBase: 0x10_000, LenderBase: 0x1000, Size: 0x1000, LenderNode: 3})
	must(Window{BorrowerBase: 0x20_000, LenderBase: 0x2000, Size: 0x1000, LenderNode: 7})

	send := func(addr uint64) {
		ok := n.TrySend(ocapi.Packet{
			Op: ocapi.OpReadBlock, Tag: uint32(addr >> 12), Addr: addr,
			Size: ocapi.CacheLineSize, Src: 0, Dst: 1, // stale pair destination
		})
		if !ok {
			t.Fatalf("TrySend(%#x) rejected", addr)
		}
	}
	send(0x10_000) // window 1 -> lender node 3
	send(0x20_080) // window 2 -> lender node 7
	k.Run()

	var got []int
	for {
		b, ok := n.TxQ.Pop()
		if !ok {
			break
		}
		got = append(got, int(b.Pkt.Dst))
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("egress destinations = %v, want [3 7]", got)
	}

	// Untranslated traffic keeps its stamped destination (and counts a
	// fault), preserving the pre-pool behaviour for unmapped addresses.
	send(0xFFF_000)
	k.Run()
	b, ok := n.TxQ.Pop()
	if !ok {
		t.Fatal("untranslated request did not egress")
	}
	if p := b.Pkt; p.Dst != 1 {
		t.Fatalf("untranslated request rerouted to %d", p.Dst)
	}
	if n.Stats().TranslationFaults != 1 {
		t.Fatalf("TranslationFaults = %d, want 1", n.Stats().TranslationFaults)
	}
}

// TestTrySendBacklogWhileInjectorShut pins how many requests a borrower
// NIC buffers while an outage holds its delay injector shut: TrySend
// keeps succeeding until everything upstream of the injector is full —
// the command queue, the routing stage and the request class queue,
// 3×QueueDepth requests — and refuses from then on.
func TestTrySendBacklogWhileInjectorShut(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.QueueDepth = 16
	k := sim.NewKernel()
	gate := inject.NewOutageGate([]inject.Window{{Start: 0, Duration: sim.Millisecond}}, cfg.FPGACycle)
	b := New(k, cfg, gate, nil)
	accepted, refused := 0, 0
	for step := 0; step < 20; step++ {
		k.At(sim.Time(step)*sim.Time(sim.Microsecond), func() {
			for b.TrySend(ocapi.Packet{Op: ocapi.OpReadBlock, Tag: uint32(accepted), Addr: 0, Size: ocapi.CacheLineSize, Src: 0, Dst: 1}) {
				accepted++
			}
			refused++
		})
	}
	k.RunUntil(sim.Time(20 * sim.Microsecond))
	if want := 3 * cfg.QueueDepth; accepted != want {
		t.Fatalf("accepted %d requests behind the shut injector, want %d", accepted, want)
	}
	if refused != 20 || b.InjectorTransfers() != 0 || b.TxQ.Pushed() != 0 {
		t.Fatalf("refused=%d injector transfers=%d tx=%d", refused, b.InjectorTransfers(), b.TxQ.Pushed())
	}
}

// TestNICBorrowsAndLends runs two NICs that borrow from each other, one
// behind a slow delay injector. Its egress carries its own requests and
// its responses to the peer through the one arbiter: the requests leave
// one per injector slot, while the responses take the bypass and keep
// the peer's fills fast.
func TestNICBorrowsAndLends(t *testing.T) {
	k := sim.NewKernel()
	mem := func() *dram.DRAM {
		return dram.New(k, dram.Config{Channels: 2, AccessLatency: 50 * sim.Nanosecond, BandwidthBps: 20e9, QueueDepth: 16})
	}
	slow := New(k, DefaultConfig(0), inject.NewPeriodGate(100, inject.DefaultFPGACycle), mem())
	fast := New(k, DefaultConfig(1), nil, mem())
	for _, pair := range [][2]*axis.FIFO{{slow.TxQ, fast.RxQ}, {fast.TxQ, slow.RxQ}} {
		tx, rx := pair[0], pair[1]
		move := func() {
			for tx.Len() > 0 && rx.Space() > 0 {
				b, _ := tx.Pop()
				rx.Push(b)
			}
		}
		tx.OnData(move)
		rx.OnSpace(move)
	}
	const n = 20
	var slowDone, fastDone sim.Time
	delivered := [2]int{}
	slow.OnDeliver = func(ocapi.Packet) { delivered[0]++; slowDone = k.Now() }
	fast.OnDeliver = func(ocapi.Packet) { delivered[1]++; fastDone = k.Now() }
	k.At(0, func() {
		for i := 0; i < n; i++ {
			req := ocapi.Packet{Op: ocapi.OpReadBlock, Tag: uint32(i), Addr: uint64(i) * 128, Size: ocapi.CacheLineSize}
			req.Src, req.Dst = 0, 1
			if !slow.TrySend(req) {
				t.Fatal("slow NIC refused a request")
			}
			req.Src, req.Dst = 1, 0
			if !fast.TrySend(req) {
				t.Fatal("fast NIC refused a request")
			}
		}
	})
	k.Run()
	if delivered != [2]int{n, n} {
		t.Fatalf("delivered %v, want %d each", delivered, n)
	}
	if slow.InjectorTransfers() != n || slow.Stats().ResponsesSent != n || slow.TxQ.Pushed() != 2*n {
		t.Fatalf("slow NIC: injector %d, responses %d, tx %d", slow.InjectorTransfers(), slow.Stats().ResponsesSent, slow.TxQ.Pushed())
	}
	// The slow NIC's requests are paced at one per 400 ns slot; the
	// responses it sends back do not wait for those slots, so the fast
	// NIC finishes all its fills before the slow one's second slot.
	if floor := sim.Time((n - 1) * 400 * int(sim.Nanosecond)); slowDone < floor {
		t.Fatalf("slow NIC's fills done at %v, under the injector floor %v", slowDone, floor)
	}
	if fastDone >= sim.Time(400*sim.Nanosecond) {
		t.Fatalf("fast NIC's fills done at %v: responses waited for the peer's injector slot", fastDone)
	}
}
