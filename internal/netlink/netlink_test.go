package netlink

import (
	"fmt"
	"slices"
	"testing"

	"thymesim/internal/axis"
	"thymesim/internal/sim"
)

func TestChannelSerializationAndPropagation(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 16)
	rx := axis.NewFIFO("rx", 16)
	// 1 GB/s, 100ns propagation: 1000 bytes => 1us wire + 100ns prop.
	c := NewChannel(k, Side{Q: tx}, Side{Q: rx}, 1e9, 100*sim.Nanosecond)
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
	NewChannel(k, Side{Q: tx}, Side{Q: rx}, 1e9, sim.Duration(10*sim.Microsecond))
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
	NewChannel(k, Side{Q: tx}, Side{Q: rx}, 1e12, 0)
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
	NewChannel(k, Side{Q: tx}, Side{Q: rx}, 1e12, sim.Duration(sim.Millisecond))
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
	c := NewChannel(k, Side{Q: tx}, Side{Q: rx}, DefaultBandwidthBps, DefaultPropagation)
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
	c := NewChannel(k, Side{Q: axis.NewFIFO("tx", 1)}, Side{Q: axis.NewFIFO("rx", 1)}, 12.5e9, 0)
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
	l := NewLink(k, Side{Q: txA}, Side{Q: rxB}, Side{Q: txB}, Side{Q: rxA}, 1e9, 0)
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
		func() { NewChannel(k, Side{Q: axis.NewFIFO("a", 1)}, Side{Q: axis.NewFIFO("b", 1)}, 0, 0) },
		func() { NewChannel(k, Side{Q: axis.NewFIFO("a", 1)}, Side{Q: axis.NewFIFO("b", 1)}, 1e9, -1) },
		func() {
			NewChannel(k, Side{Q: axis.NewFIFO("a", 1), Latency: 1, Paced: true}, Side{Q: axis.NewFIFO("b", 1)}, 1e9, 0)
		},
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

// arrivals records the instant of every beat landing in rx.
func arrivals(k *sim.Kernel, rx *axis.FIFO) *[]sim.Time {
	var at []sim.Time
	rx.OnData(func() { at = append(at, k.Now()) })
	return &at
}

// TestChannelFoldsSideLatencies checks one crossing end to end: the
// sender's traversal, serialization, propagation and the receiver's
// traversal add up to one arrival event, and the stamps mark the wire
// entry and the end of propagation.
func TestChannelFoldsSideLatencies(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 4)
	rx := axis.NewFIFO("rx", 4)
	var wireAt, landAt sim.Time
	// 1 GB/s: 1000 bytes serialize in 1 µs.
	NewChannel(k,
		Side{Q: tx, Latency: 150 * sim.Nanosecond, Stamp: func(_ axis.Beat, at sim.Time) { wireAt = at }},
		Side{Q: rx, Latency: 150 * sim.Nanosecond, Stamp: func(_ axis.Beat, at sim.Time) { landAt = at }},
		1e9, 100*sim.Nanosecond)
	got := arrivals(k, rx)
	k.At(0, func() { tx.Push(axis.Beat{Bytes: 1000}) })
	k.Run()
	if want := []sim.Time{sim.Time(1400 * sim.Nanosecond)}; !slices.Equal(*got, want) {
		t.Fatalf("arrivals %v, want %v", *got, want)
	}
	if wireAt != sim.Time(150*sim.Nanosecond) || landAt != sim.Time(1250*sim.Nanosecond) {
		t.Fatalf("stamps: wire %v, land %v; want 150ns, 1.25µs", wireAt, landAt)
	}
	if n := k.Processed(); n != 2 {
		t.Fatalf("%d events, want 2 (the push and one arrival)", n)
	}
}

// TestChannelCreditBoundCountersAtStepTo drives a channel into a receive
// queue of two beats, so the credit bound holds two beats back until the
// receiver drains, and reads the counters at StepTo boundaries against
// hand-computed values. 1 GB/s makes a 100-byte beat serialize in 100 ns;
// the sender's traversal is 20 ns, propagation 50 ns, the receiver's
// traversal 30 ns.
//
//	beat  leaves  on wire    propagated  arrives
//	0     0       20–120     170         200
//	1     0       120–220    270         300
//	2     500     520–620    670         700
//	3     500     620–720    770         800
//
// Beats 2 and 3 leave only when the receiver pops at 500 ns. Busy wire
// time counts a whole serialization from its start (a wire server books
// it then), and a beat counts as delivered once its propagation ended.
func TestChannelCreditBoundCountersAtStepTo(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 8)
	rx := axis.NewFIFO("rx", 2)
	var wire, land []sim.Time
	c := NewChannel(k,
		Side{Q: tx, Latency: 20 * sim.Nanosecond, Stamp: func(_ axis.Beat, at sim.Time) { wire = append(wire, at) }},
		Side{Q: rx, Latency: 30 * sim.Nanosecond, Stamp: func(_ axis.Beat, at sim.Time) { land = append(land, at) }},
		1e9, 50*sim.Nanosecond)
	got := arrivals(k, rx)
	k.At(0, func() {
		for i := 0; i < 4; i++ {
			tx.Push(axis.Beat{Bytes: 100, Dest: int32(i)})
		}
	})
	k.At(sim.Time(500*sim.Nanosecond), func() { rx.Pop(); rx.Pop() })
	ns := func(v int64) sim.Time { return sim.Time(v * int64(sim.Nanosecond)) }
	for _, step := range []struct {
		at              int64
		delivered, live int
		busyNs          int64
		txLen           int
	}{
		{at: 100, delivered: 0, live: 2, busyNs: 100, txLen: 2},
		{at: 170, delivered: 0, live: 2, busyNs: 200, txLen: 2},
		{at: 171, delivered: 1, live: 2, busyNs: 200, txLen: 2},
		{at: 250, delivered: 1, live: 1, busyNs: 200, txLen: 2},
		{at: 400, delivered: 2, live: 0, busyNs: 200, txLen: 2},
		{at: 600, delivered: 2, live: 2, busyNs: 300, txLen: 0},
		{at: 750, delivered: 3, live: 1, busyNs: 400, txLen: 0},
	} {
		k.StepTo(ns(step.at))
		if d := c.Delivered(); d != uint64(step.delivered) {
			t.Errorf("at %dns: Delivered %d, want %d", step.at, d, step.delivered)
		}
		if b := c.Bytes(); b != 100*uint64(step.delivered) {
			t.Errorf("at %dns: Bytes %d, want %d", step.at, b, 100*step.delivered)
		}
		if n := c.FlightsLive(); n != step.live {
			t.Errorf("at %dns: FlightsLive %d, want %d", step.at, n, step.live)
		}
		if u, want := c.Utilization(), float64(step.busyNs)/float64(step.at); u != want {
			t.Errorf("at %dns: Utilization %v, want %v", step.at, u, want)
		}
		if n := tx.Len(); n != step.txLen {
			t.Errorf("at %dns: %d beats held back in tx, want %d", step.at, n, step.txLen)
		}
	}
	k.Run()
	if want := []sim.Time{ns(200), ns(300), ns(700), ns(800)}; !slices.Equal(*got, want) {
		t.Errorf("arrivals %v, want %v", *got, want)
	}
	if want := []sim.Time{ns(20), ns(20), ns(520), ns(520)}; !slices.Equal(wire, want) {
		t.Errorf("wire stamps %v, want %v", wire, want)
	}
	if want := []sim.Time{ns(170), ns(270), ns(670), ns(770)}; !slices.Equal(land, want) {
		t.Errorf("landing stamps %v, want %v", land, want)
	}
	if c.Delivered() != 4 || c.Bytes() != 400 || c.FlightsLive() != 0 || c.Utilization() != 0.5 {
		t.Errorf("drained: delivered %d, bytes %d, live %d, utilization %v",
			c.Delivered(), c.Bytes(), c.FlightsLive(), c.Utilization())
	}
}

// TestChannelPacedTakesOneBeatPerWire checks a paced transmit queue: a
// beat leaves it only when the wire frees, so its occupancy is what a
// credit check upstream must see, and each beat costs a serialization
// end plus an arrival.
func TestChannelPacedTakesOneBeatPerWire(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 4)
	rx := axis.NewFIFO("rx", 4)
	NewChannel(k, Side{Q: tx, Paced: true}, Side{Q: rx, Latency: 30 * sim.Nanosecond}, 1e9, 50*sim.Nanosecond)
	got := arrivals(k, rx)
	k.At(0, func() {
		for i := 0; i < 3; i++ {
			tx.Push(axis.Beat{Bytes: 100})
		}
	})
	ns := func(v int64) sim.Time { return sim.Time(v * int64(sim.Nanosecond)) }
	for _, step := range []struct{ at, txLen int64 }{{50, 2}, {150, 1}, {250, 0}} {
		k.StepTo(ns(step.at))
		if n := tx.Len(); int64(n) != step.txLen {
			t.Errorf("at %dns: tx holds %d, want %d", step.at, n, step.txLen)
		}
	}
	k.Run()
	if want := []sim.Time{ns(180), ns(280), ns(380)}; !slices.Equal(*got, want) {
		t.Fatalf("arrivals %v, want %v", *got, want)
	}
	if n := k.Processed(); n != 7 {
		t.Fatalf("%d events, want 7 (the push, three serialization ends, three arrivals)", n)
	}
}

// TestChannelSideLatencyPipelines checks that a side's traversal latency
// overlaps beats rather than serializing them: ten beats queued at once
// all traverse the sender's 1 µs pipeline together and land in order,
// each one serialization (1 ns) after the last.
func TestChannelSideLatencyPipelines(t *testing.T) {
	k := sim.NewKernel()
	tx := axis.NewFIFO("tx", 16)
	rx := axis.NewFIFO("rx", 16)
	NewChannel(k, Side{Q: tx, Latency: sim.Duration(sim.Microsecond)}, Side{Q: rx}, 1e12, 0)
	got := arrivals(k, rx)
	k.At(0, func() {
		for i := 0; i < 10; i++ {
			tx.Push(axis.Beat{Bytes: 1000, Dest: int32(i)})
		}
	})
	end := k.Run()
	if want := sim.Time(sim.Microsecond + 10*sim.Nanosecond); end != want {
		t.Fatalf("end = %v, want %v (full pipelining)", end, want)
	}
	for i, at := range *got {
		if want := sim.Time(sim.Microsecond + sim.Duration(i+1)*sim.Nanosecond); at != want {
			t.Fatalf("beat %d arrived at %v, want %v", i, at, want)
		}
	}
	if rx.Len() != 10 {
		t.Fatalf("rx = %d", rx.Len())
	}
	for i := 0; i < 10; i++ {
		if b, _ := rx.Pop(); int(b.Dest) != i {
			t.Fatalf("order violated at %d: %d", i, b.Dest)
		}
	}
}

// TestChannelNegativeSideLatencyPanics checks that either side's
// traversal latency must not be negative.
func TestChannelNegativeSideLatencyPanics(t *testing.T) {
	k := sim.NewKernel()
	for name, fn := range map[string]func(){
		"tx": func() {
			NewChannel(k, Side{Q: axis.NewFIFO("a", 1), Latency: -1}, Side{Q: axis.NewFIFO("b", 1)}, 1e9, 0)
		},
		"rx": func() {
			NewChannel(k, Side{Q: axis.NewFIFO("a", 1)}, Side{Q: axis.NewFIFO("b", 1), Latency: -1}, 1e9, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("negative %s latency did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestChannelArrivalsStayInOrder drives one channel through everything
// that moves its arrival instants — a sender traversal, mixed beat sizes,
// credit stalls behind a small, slowly drained receive queue, and the
// paced mode — and checks the order argument Channel's comment makes:
// beats land in push order (the arrivals source would panic on an append
// out of order), and the source holds exactly the booked arrivals,
// FlightsLive less a paced beat still on the wire, never more than the
// receive queue's capacity.
func TestChannelArrivalsStayInOrder(t *testing.T) {
	for _, paced := range []bool{false, true} {
		t.Run(fmt.Sprintf("paced=%v", paced), func(t *testing.T) {
			k := sim.NewKernel()
			tx := axis.NewFIFO("tx", 64)
			rx := axis.NewFIFO("rx", 5)
			txSide := Side{Q: tx, Latency: 40 * sim.Nanosecond}
			if paced {
				txSide = Side{Q: tx, Paced: true}
			}
			c := NewChannel(k, txSide, Side{Q: rx, Latency: 25 * sim.Nanosecond}, 10e9, 60*sim.Nanosecond)
			check := func() {
				booked := c.FlightsLive()
				if c.armed {
					booked--
				}
				if n := c.arrivals.Len(); n != booked || n > rx.Cap() {
					t.Fatalf("at %v: source holds %d arrivals, %d flights live (armed %v), rx cap %d",
						k.Now(), n, c.FlightsLive(), c.armed, rx.Cap())
				}
			}
			tx.OnSpace(check)
			rx.OnData(check)
			var got []int32
			drain := func() bool {
				check()
				if b, ok := rx.Pop(); ok {
					got = append(got, b.Dest)
				}
				return len(got) < 200
			}
			k.Ticker(35*sim.Nanosecond, drain)
			sizes := []int32{64, 8, 256, 32, 1500, 64, 16}
			next := int32(0)
			k.Ticker(20*sim.Nanosecond, func() bool {
				for n := 0; n < int(next%3)+1 && next < 200 && tx.Space() > 0; n++ {
					tx.Push(axis.Beat{Bytes: sizes[next%int32(len(sizes))], Dest: next})
					next++
				}
				return next < 200
			})
			k.Run()
			if len(got) != 200 {
				t.Fatalf("%d of 200 beats arrived", len(got))
			}
			for i, d := range got {
				if d != int32(i) {
					t.Fatalf("beat %d arrived in place %d", d, i)
				}
			}
			if c.arrivals.Len() != 0 || c.FlightsLive() != 0 {
				t.Fatalf("drained channel: source %d, flights %d", c.arrivals.Len(), c.FlightsLive())
			}
		})
	}
}
