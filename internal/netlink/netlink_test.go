package netlink

import (
	"testing"

	"thymesim/internal/axis"
	"thymesim/internal/sim"
)

func TestChannelSerializationAndPropagation(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 16)
	rx := axis.NewFIFO("rx", 16)
	// 1 GB/s, 100ns propagation: 1000 bytes => 1us wire + 100ns prop.
	c := NewChannel(k, tx, rx, 1e9, 100*sim.Nanosecond)
	var deliveredAt sim.Time
	rx.OnData(func() { deliveredAt = k.Now() })
	k.At(0, func() { tx.Push(axis.Beat{Bytes: 1000}) })
	k.Run()
	want := sim.Time(sim.Microsecond + 100*sim.Nanosecond)
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if c.Delivered() != 1 || c.Bytes() != 1000 {
		t.Fatalf("delivered=%d bytes=%d", c.Delivered(), c.Bytes())
	}
}

func TestChannelPipelining(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 16)
	rx := axis.NewFIFO("rx", 16)
	// Propagation is pipelined with serialization of the next beat.
	NewChannel(k, tx, rx, 1e9, sim.Duration(10*sim.Microsecond))
	k.At(0, func() {
		for i := 0; i < 4; i++ {
			tx.Push(axis.Beat{Bytes: 1000})
		}
	})
	end := k.Run()
	// 4 serializations back to back (4us) + one propagation (10us).
	want := sim.Time(4*sim.Microsecond + 10*sim.Microsecond)
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if rx.Len() != 4 {
		t.Fatalf("rx = %d", rx.Len())
	}
}

func TestChannelBackpressure(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 16)
	rx := axis.NewFIFO("rx", 2)
	NewChannel(k, tx, rx, 1e12, 0)
	k.At(0, func() {
		for i := 0; i < 6; i++ {
			tx.Push(axis.Beat{Bytes: 100, Dest: int32(i)})
		}
	})
	k.Run()
	if rx.Len() != 2 || tx.Len() != 4 {
		t.Fatalf("backpressure: rx=%d tx=%d", rx.Len(), tx.Len())
	}
	k.At(k.Now(), func() { rx.Pop(); rx.Pop() })
	k.Run()
	if rx.Len() != 2 || tx.Len() != 2 {
		t.Fatalf("resume: rx=%d tx=%d", rx.Len(), tx.Len())
	}
}

func TestChannelInFlightDoesNotOverflowRx(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 16)
	rx := axis.NewFIFO("rx", 1)
	// Long propagation: several beats could be in flight without credit
	// accounting; rx capacity 1 means at most one may be.
	NewChannel(k, tx, rx, 1e12, sim.Duration(sim.Millisecond))
	k.At(0, func() {
		for i := 0; i < 3; i++ {
			tx.Push(axis.Beat{Bytes: 100})
		}
	})
	// Never pop: exactly one beat may be delivered; a Push to a full FIFO
	// would panic.
	k.Run()
	if rx.Len() != 1 || tx.Len() != 2 {
		t.Fatalf("rx=%d tx=%d", rx.Len(), tx.Len())
	}
}

func TestChannelBandwidthSaturation(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 4096)
	rx := axis.NewFIFO("rx", 4096)
	c := NewChannel(k, tx, rx, DefaultBandwidthBps, DefaultPropagation)
	const n = 1000
	const beatBytes = 1250 // 100ns each at 100Gb/s
	k.At(0, func() {
		for i := 0; i < n; i++ {
			tx.Push(axis.Beat{Bytes: beatBytes})
		}
	})
	end := k.Run()
	gotBps := float64(c.Bytes()) / sim.Time(end).Seconds()
	if gotBps < 0.9*DefaultBandwidthBps || gotBps > 1.01*DefaultBandwidthBps {
		t.Fatalf("achieved %v B/s, want ~%v", gotBps, DefaultBandwidthBps)
	}
	if u := c.Utilization(); u < 0.95 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestChannelSerializationTime(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, axis.NewFIFO("tx", 1), axis.NewFIFO("rx", 1), 12.5e9, 0)
	if got := c.SerializationTime(1250); got != 100*sim.Nanosecond {
		t.Fatalf("serialization = %v, want 100ns", got)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	k := sim.NewKernel()
	txA := axis.NewFIFO("txA", 16)
	rxA := axis.NewFIFO("rxA", 16)
	txB := axis.NewFIFO("txB", 16)
	rxB := axis.NewFIFO("rxB", 16)
	l := NewLink(k, txA, rxB, txB, rxA, 1e9, 0)
	k.At(0, func() {
		txA.Push(axis.Beat{Bytes: 1000})
		txB.Push(axis.Beat{Bytes: 2000})
	})
	end := k.Run()
	// Directions are independent: both complete at their own serialization
	// times; end = max(1us, 2us).
	if end != sim.Time(2*sim.Microsecond) {
		t.Fatalf("end = %v", end)
	}
	if rxB.Len() != 1 || rxA.Len() != 1 {
		t.Fatalf("rxB=%d rxA=%d", rxB.Len(), rxA.Len())
	}
	if l.String() == "" {
		t.Error("empty link summary")
	}
}

func TestChannelValidation(t *testing.T) {
	k := sim.NewKernel()
	for _, fn := range []func(){
		func() { NewChannel(k, axis.NewFIFO("a", 1), axis.NewFIFO("b", 1), 0, 0) },
		func() { NewChannel(k, axis.NewFIFO("a", 1), axis.NewFIFO("b", 1), 1e9, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
