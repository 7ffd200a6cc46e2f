package fabric

import (
	"slices"
	"testing"

	"thymesim/internal/axis"
	"thymesim/internal/netlink"
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
		p := &ocapi.Packet{Op: ocapi.OpProbe, Src: 0, Dst: dst}
		return axis.Beat{Bytes: int32(p.WireBytes()), Pkt: p}
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
		p := &ocapi.Packet{Op: ocapi.OpProbe, Src: 0, Dst: 99}
		sw.ports[0].In.Push(axis.Beat{Bytes: 10, Pkt: p})
		sw.ports[0].In.Push(axis.Beat{Bytes: 10}) // no packet: unroutable
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
		p := &ocapi.Packet{Op: ocapi.OpProbe, Src: 0, Dst: 1}
		sw.ports[0].In.Push(axis.Beat{Bytes: 10, Pkt: p})
	})
	k.Run()
	if at != sim.Time(sim.Microsecond) {
		t.Fatalf("forwarded at %v, want 1us", at)
	}
}

// TestSwitchHopsLive counts the beats inside the forwarding pipeline:
// nonzero while they wait out the switch latency, zero once they land,
// and zero again after a second burst reuses the pooled contexts.
func TestSwitchHopsLive(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultSwitchConfig(3)
	cfg.SwitchLatency = sim.Duration(sim.Microsecond)
	sw := NewSwitch(k, cfg)
	burst := func() {
		for _, dst := range []uint16{1, 2, 1} {
			p := &ocapi.Packet{Op: ocapi.OpProbe, Src: 0, Dst: dst}
			sw.ports[0].In.Push(axis.Beat{Bytes: int32(p.WireBytes()), Pkt: p})
		}
	}
	for round := 0; round < 2; round++ {
		k.At(k.Now(), burst)
		k.RunUntil(k.Now().Add(sim.Duration(sim.Microsecond) / 2))
		if n := sw.HopsLive(); n != 3 {
			t.Fatalf("round %d: %d hops live mid-latency, want 3", round, n)
		}
		k.Run()
		if n := sw.HopsLive(); n != 0 {
			t.Fatalf("round %d: %d hops live after drain", round, n)
		}
	}
	if sw.Forwarded() != 6 {
		t.Fatalf("forwarded = %d, want 6", sw.Forwarded())
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
			sw.ports[0].In.Push(axis.Beat{Bytes: int32(p.WireBytes()), Pkt: p})
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
			p := &ocapi.Packet{Op: ocapi.OpProbe, Src: 0, Dst: 1, Tag: uint32(sent)}
			sw.ports[0].In.Push(axis.Beat{Bytes: 10, Pkt: p})
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
			got = append(got, b.Pkt.Tag)
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

// TestSwitchWakeOrderWhileReblocking pins the output waker's order on a
// 70-port switch, whose blocked inputs span two bitset words. During one
// waker walk the first woken input takes the freed credit and re-blocks,
// and then inputs 1, 5 and 68 block on the same output. The walk
// must wake inputs exactly as a scan of a per-input flag array in index
// order would: 5 and 68 lie ahead of the walk and wake in it, 1 lies
// behind it and waits for the next credit.
func TestSwitchWakeOrderWhileReblocking(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultSwitchConfig(70)
	cfg.OutputQueue = 1
	cfg.InputQueue = 4
	sw := NewSwitch(k, cfg)
	beat := func() axis.Beat { return axis.Beat{Bytes: 64, Pkt: &ocapi.Packet{Op: ocapi.OpProbe, Dst: 0}} }
	var woken []int
	arrived := false
	for i := range sw.kicks {
		kick := sw.kicks[i]
		sw.kicks[i] = func() {
			woken = append(woken, i)
			kick()
			if i == 3 && !arrived {
				// Beats arrive at three idle inputs while the walk is
				// between inputs 3 and 5; the credit is taken, so they
				// block at once.
				arrived = true
				for _, in := range []int{68, 1, 5} {
					sw.ports[in].In.Push(beat())
				}
			}
		}
	}
	out := sw.ports[0].Out
	out.Push(beat()) // no credit: every input with a beat for port 0 blocks
	for _, in := range []int{3, 65, 66} {
		sw.ports[in].In.Push(beat())
		sw.ports[in].In.Push(beat())
	}
	if len(woken) != 0 {
		t.Fatalf("inputs %v woken before any credit freed", woken)
	}
	out.Pop()
	if want := []int{3, 5, 65, 66, 68}; !slices.Equal(woken, want) {
		t.Fatalf("first walk woke %v, want %v", woken, want)
	}
	// The hop lands; the next credit wakes every blocked input in index
	// order, and input 1, woken first, takes it.
	k.Run()
	woken = woken[:0]
	out.Pop()
	if want := []int{1, 3, 5, 65, 66, 68}; !slices.Equal(woken, want) {
		t.Fatalf("second walk woke %v, want %v", woken, want)
	}
	k.Run()
	if got := sw.Forwarded(); got != 2 {
		t.Fatalf("forwarded %d beats, want 2", got)
	}
	if b, _ := sw.ports[1].In.Peek(); sw.ports[1].In.Len() != 0 || b.Pkt != nil {
		t.Fatal("input 1 still holds its beat after the second credit")
	}
}

// TestSwitchRejectsDoubleAttach pins the one-NIC-per-port contract.
func TestSwitchRejectsDoubleAttach(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, DefaultSwitchConfig(2))
	ports := func(name string) NICPorts {
		return NICPorts{
			Egress:  netlink.Side{Q: axis.NewFIFO(name+"-tx", 4)},
			Ingress: netlink.Side{Q: axis.NewFIFO(name+"-rx", 4)},
		}
	}
	sw.AttachNIC(0, ports("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("double attach accepted")
		}
	}()
	sw.AttachNIC(0, ports("b"))
}
