package fabric

import (
	"testing"

	"thymesim/internal/axis"
	"thymesim/internal/memport"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

func TestSwitchConfigValidation(t *testing.T) {
	if err := DefaultSwitchConfig(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SwitchConfig{
		{Ports: 1, LinkBandwidthBps: 1, OutputQueue: 1},
		{Ports: 2, LinkBandwidthBps: 0, OutputQueue: 1},
		{Ports: 2, LinkBandwidthBps: 1, OutputQueue: 0},
		{Ports: 2, LinkBandwidthBps: 1, OutputQueue: 1, SwitchLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSwitchForwardsByPacketDst(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, DefaultSwitchConfig(3))
	mk := func(dst uint16) axis.Beat {
		p := ocapi.Packet{Op: ocapi.OpProbe, Src: 0, Dst: dst}
		return axis.Beat{Bytes: p.WireBytes(), Meta: p}
	}
	k.At(0, func() {
		sw.ports[0].In.Push(mk(1))
		sw.ports[0].In.Push(mk(2))
		sw.ports[0].In.Push(mk(1))
	})
	k.Run()
	if sw.ports[1].Out.Len() != 2 || sw.ports[2].Out.Len() != 1 {
		t.Fatalf("out lens = %d/%d", sw.ports[1].Out.Len(), sw.ports[2].Out.Len())
	}
	if sw.Forwarded() != 3 {
		t.Fatalf("forwarded = %d", sw.Forwarded())
	}
}

func TestSwitchDropsUnroutable(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, DefaultSwitchConfig(2))
	k.At(0, func() {
		p := ocapi.Packet{Op: ocapi.OpProbe, Src: 0, Dst: 99}
		sw.ports[0].In.Push(axis.Beat{Bytes: 10, Meta: p})
		sw.ports[0].In.Push(axis.Beat{Bytes: 10, Meta: "garbage"})
	})
	k.Run()
	if sw.Dropped() != 2 {
		t.Fatalf("dropped = %d", sw.Dropped())
	}
}

func TestSwitchLatencyApplied(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultSwitchConfig(2)
	cfg.SwitchLatency = sim.Duration(sim.Microsecond)
	sw := NewSwitch(k, cfg)
	var at sim.Time
	sw.ports[1].Out.OnData(func() { at = k.Now() })
	k.At(0, func() {
		p := ocapi.Packet{Op: ocapi.OpProbe, Src: 0, Dst: 1}
		sw.ports[0].In.Push(axis.Beat{Bytes: 10, Meta: p})
	})
	k.Run()
	if at != sim.Time(sim.Microsecond) {
		t.Fatalf("forwarded at %v, want 1us", at)
	}
}

// TestSwitchForwardingZeroAlloc pins that a warmed switch forwards beats
// without allocating: each beat in the forwarding pipeline rides a pooled
// hop context, not a per-beat closure.
func TestSwitchForwardingZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, DefaultSwitchConfig(3))
	pkts := []*ocapi.Packet{
		{Op: ocapi.OpProbe, Src: 0, Dst: 1},
		{Op: ocapi.OpProbe, Src: 0, Dst: 2},
		{Op: ocapi.OpProbe, Src: 0, Dst: 1},
		{Op: ocapi.OpProbe, Src: 0, Dst: 2},
	}
	cycle := func() {
		for _, p := range pkts {
			sw.ports[0].In.Push(axis.Beat{Bytes: p.WireBytes(), Meta: p})
		}
		k.Run()
		for _, o := range []int{1, 2} {
			for sw.ports[o].Out.Len() > 0 {
				sw.ports[o].Out.Pop()
			}
		}
	}
	cycle() // warm the hop pool and the FIFO rings
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warmed switch allocates %.1f per cycle, want 0", allocs)
	}
	if want := uint64(4 * 102); sw.Forwarded() != want {
		t.Fatalf("forwarded = %d, want %d", sw.Forwarded(), want)
	}
}

func TestDCConfigValidation(t *testing.T) {
	if err := DefaultDCConfig(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultDCConfig(4)
	bad.Nodes = 1
	if err := bad.Validate(); err == nil {
		t.Error("1 node accepted")
	}
	bad = DefaultDCConfig(4)
	bad.Switch.Ports = 2
	if err := bad.Validate(); err == nil {
		t.Error("ports < nodes accepted")
	}
}

// dcRead reads n distinct lines from lender memory through the fabric and
// returns the elapsed simulated time.
func dcRead(t *testing.T, d *Datacenter, h *memport.Hierarchy, base uint64, n int) {
	t.Helper()
	done := 0
	d.K.At(d.K.Now(), func() {
		for i := 0; i < n; i++ {
			h.Access(base+uint64(i)*ocapi.CacheLineSize, 8, false, func() { done++ })
		}
	})
	d.K.Run()
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
}

func TestDatacenterBorrowAndAccess(t *testing.T) {
	d := NewDatacenter(DefaultDCConfig(3))
	base, err := d.Borrow(0, 1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	h := d.NewHierarchy(0, 1)
	dcRead(t, d, h, base, 100)
	if d.Nodes[1].Mem.Reads() != 100 {
		t.Fatalf("lender reads = %d", d.Nodes[1].Mem.Reads())
	}
	if d.Nodes[2].Mem.Reads() != 0 {
		t.Fatalf("bystander touched: %d", d.Nodes[2].Mem.Reads())
	}
	if d.Switch.Forwarded() == 0 {
		t.Fatal("traffic bypassed the switch")
	}
}

func TestDatacenterSelfBorrowRejected(t *testing.T) {
	d := NewDatacenter(DefaultDCConfig(2))
	if _, err := d.Borrow(0, 0, 1<<20); err == nil {
		t.Fatal("self borrow accepted")
	}
}

func TestDatacenterMultipleBorrowersShareLenderLink(t *testing.T) {
	// Incast: two borrowers streaming from the same lender must each see
	// roughly half the single-borrower bandwidth (the lender's switch
	// port is the shared bottleneck).
	run := func(borrowers int) float64 {
		d := NewDatacenter(DefaultDCConfig(4))
		type flow struct {
			h    *memport.Hierarchy
			base uint64
		}
		var flows []flow
		for b := 0; b < borrowers; b++ {
			base, err := d.Borrow(b, 3, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, flow{d.NewHierarchy(b, 3), base})
		}
		const lines = 1500
		done := 0
		d.K.At(0, func() {
			for _, f := range flows {
				f := f
				for i := 0; i < lines; i++ {
					f.h.Access(f.base+uint64(i)*ocapi.CacheLineSize, 8, false, func() { done++ })
				}
			}
		})
		end := d.K.Run()
		if done != borrowers*lines {
			t.Fatalf("done = %d", done)
		}
		// Per-borrower bandwidth.
		return float64(lines*ocapi.CacheLineSize) / sim.Time(end).Seconds()
	}
	alone := run(1)
	shared := run(2)
	ratio := shared / alone
	if ratio < 0.35 || ratio > 0.7 {
		t.Fatalf("incast ratio = %v, want ~0.5", ratio)
	}
}

func TestDatacenterDisjointPairsDoNotInterfere(t *testing.T) {
	run := func(pairs int) sim.Time {
		d := NewDatacenter(DefaultDCConfig(4))
		done := 0
		var hs []*memport.Hierarchy
		var bases []uint64
		for p := 0; p < pairs; p++ {
			base, err := d.Borrow(2*p, 2*p+1, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, d.NewHierarchy(2*p, 2*p+1))
			bases = append(bases, base)
		}
		const lines = 800
		d.K.At(0, func() {
			for i, h := range hs {
				h, base := h, bases[i]
				for j := 0; j < lines; j++ {
					h.Access(base+uint64(j)*ocapi.CacheLineSize, 8, false, func() { done++ })
				}
			}
		})
		end := d.K.Run()
		if done != pairs*lines {
			t.Fatalf("done = %d", done)
		}
		return end
	}
	one := run(1)
	two := run(2)
	// Disjoint pairs through an output-queued switch: no shared
	// bottleneck, so wall time barely changes.
	if float64(two) > 1.2*float64(one) {
		t.Fatalf("disjoint pairs interfered: %v vs %v", two, one)
	}
}

func TestDatacenterWithInjectionGate(t *testing.T) {
	// Install a pathological gate on node 0 only: its traffic crawls,
	// node 2's traffic is unaffected.
	cfg := DefaultDCConfig(4)
	cfg.Gate = func(node int) axis.Gate {
		if node == 0 {
			return slowGate{}
		}
		return nil
	}
	d := NewDatacenter(cfg)
	b0, _ := d.Borrow(0, 1, 1<<30)
	b2, _ := d.Borrow(2, 3, 1<<30)
	h0 := d.NewHierarchy(0, 1)
	h2 := d.NewHierarchy(2, 3)
	var t0, t2 sim.Time
	d.K.At(0, func() {
		h0.Access(b0, 8, false, func() { t0 = d.K.Now() })
		h2.Access(b2, 8, false, func() { t2 = d.K.Now() })
	})
	d.K.Run()
	if t0 <= t2+sim.Time(50*sim.Microsecond) {
		t.Fatalf("gated node not delayed: %v vs %v", t0, t2)
	}
}

// slowGate quantizes transfers onto a 100us grid (Next must be idempotent
// per the axis.Gate contract).
type slowGate struct{}

func (slowGate) Next(now sim.Time) sim.Time {
	const q = sim.Time(100 * sim.Microsecond)
	return (now + q - 1) / q * q
}
func (slowGate) Commit(sim.Time) {}

// TestSwitchBlockedInputResumesOnCredit pins the head-of-line wakeup path:
// an input blocked on a full output must resume — through the per-output
// waiting list, not a broadcast subscription — as soon as the output
// drains, and beats must arrive complete and in order.
func TestSwitchBlockedInputResumesOnCredit(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultSwitchConfig(3)
	cfg.OutputQueue = 2 // tiny, so the input blocks quickly
	sw := NewSwitch(k, cfg)
	const beats = 8
	sent := 0
	var feed func()
	feed = func() {
		for sent < beats && sw.ports[0].In.Space() > 0 {
			p := ocapi.Packet{Op: ocapi.OpProbe, Src: 0, Dst: 1, Tag: uint32(sent)}
			sw.ports[0].In.Push(axis.Beat{Bytes: 10, Meta: p})
			sent++
		}
		if sent < beats {
			k.After(sim.Microsecond, feed)
		}
	}
	k.At(0, feed)
	// A slow consumer: drain one beat per 10us, forcing repeated
	// block/unblock cycles at the forwarding engine.
	var got []uint32
	var drain func()
	drain = func() {
		if b, ok := sw.ports[1].Out.Pop(); ok {
			got = append(got, b.Meta.(ocapi.Packet).Tag)
		}
		if len(got) < beats {
			k.After(10*sim.Microsecond, drain)
		}
	}
	k.After(10*sim.Microsecond, drain)
	k.Run()
	if len(got) != beats {
		t.Fatalf("drained %d of %d beats", len(got), beats)
	}
	for i, tag := range got {
		if tag != uint32(i) {
			t.Fatalf("beat %d has tag %d: reordered across block/unblock", i, tag)
		}
	}
	if sw.Forwarded() != beats {
		t.Fatalf("forwarded = %d", sw.Forwarded())
	}
}

// TestSwitchRejectsDoubleAttach pins the one-NIC-per-port contract.
func TestSwitchRejectsDoubleAttach(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, DefaultSwitchConfig(2))
	nic := NICPorts{
		TxQ: axis.NewFIFO("tx", 4),
		RxQ: axis.NewFIFO("rx", 4),
	}
	sw.AttachNIC(0, nic)
	defer func() {
		if recover() == nil {
			t.Fatal("double attach accepted")
		}
	}()
	sw.AttachNIC(0, NICPorts{TxQ: axis.NewFIFO("tx2", 4), RxQ: axis.NewFIFO("rx2", 4)})
}

// TestDatacenterRepeatedBorrowsDisjoint is the regression test for the
// overlapping-window bug: two borrows by the same borrower from the same
// lender used to map to the same lender base address. They must carve
// disjoint lender segments, and writes through one window must not be
// visible through the other.
func TestDatacenterRepeatedBorrowsDisjoint(t *testing.T) {
	d := NewDatacenter(DefaultDCConfig(3))
	const size = 1 << 20
	a, err := d.Borrow(0, 1, size)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Borrow(0, 1, size)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("both borrows landed at borrower base %#x", a)
	}
	xl := d.Nodes[0].NIC.Translator()
	_, la, ok := xl.Translate(a)
	if !ok {
		t.Fatalf("window %#x does not translate", a)
	}
	_, lb, ok := xl.Translate(b)
	if !ok {
		t.Fatalf("window %#x does not translate", b)
	}
	if la == lb {
		t.Fatalf("both windows alias lender address %#x", la)
	}
	if la+size > lb && lb+size > la {
		t.Fatalf("lender segments overlap: %#x and %#x", la, lb)
	}
	// A second borrower carves from the same reservation — still disjoint.
	c, err := d.Borrow(2, 1, size)
	if err != nil {
		t.Fatal(err)
	}
	_, lc, ok := d.Nodes[2].NIC.Translator().Translate(c)
	if !ok {
		t.Fatalf("window %#x does not translate", c)
	}
	if lc == la || lc == lb {
		t.Fatalf("borrower 2's segment aliases borrower 0's: %#x", lc)
	}
	if got := d.Nodes[1].Alloc.Allocated(); got != 3*size {
		t.Fatalf("lender carved %d bytes, want %d", got, 3*size)
	}
}

// TestDatacenterBorrowExhaustsLender pins overcommit rejection: borrows
// beyond the lender's reservation fail instead of aliasing memory.
func TestDatacenterBorrowExhaustsLender(t *testing.T) {
	cfg := DefaultDCConfig(2)
	cfg.LenderCapacity = 1 << 20
	d := NewDatacenter(cfg)
	if _, err := d.Borrow(0, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Borrow(0, 1, ocapi.CacheLineSize); err == nil {
		t.Fatal("borrow beyond the lender reservation accepted")
	}
}
