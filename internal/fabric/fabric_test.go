package fabric

import (
	"testing"

	"thymesim/internal/axis"
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
