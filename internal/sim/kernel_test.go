package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdersByTime(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestKernelAfterAndPost(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.After(100, func() {
		trace = append(trace, "outer")
		k.Post(func() { trace = append(trace, "post") })
		k.After(0, func() { trace = append(trace, "after0") })
	})
	k.Run()
	if k.Now() != 100 {
		t.Fatalf("now = %v, want 100", k.Now())
	}
	want := []string{"outer", "post", "after0"}
	for i, w := range want {
		if trace[i] != w {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestRunUntilAdvancesClockToLimit(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(1000, func() { fired = true })
	end := k.RunUntil(500)
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if end != 500 || k.Now() != 500 {
		t.Fatalf("clock = %v, want 500", end)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if !fired || k.Now() != 1000 {
		t.Fatalf("resume failed: fired=%v now=%v", fired, k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
	if k.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", k.Pending())
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel()
	var at []Time
	k.Ticker(10, func() bool {
		at = append(at, k.Now())
		return len(at) < 5
	})
	k.Run()
	if len(at) != 5 {
		t.Fatalf("ticks = %d, want 5", len(at))
	}
	for i, ts := range at {
		if ts != Time(10*(i+1)) {
			t.Fatalf("tick %d at %v, want %v", i, ts, 10*(i+1))
		}
	}
}

func TestWaitGroup(t *testing.T) {
	var w WaitGroup
	done := 0
	w.Add(3)
	w.OnZero(func() { done++ })
	w.Done()
	w.Done()
	if done != 0 {
		t.Fatal("fired early")
	}
	w.Done()
	if done != 1 {
		t.Fatalf("done = %d, want 1", done)
	}
	// Zero-count registration fires immediately.
	var w2 WaitGroup
	fired := false
	w2.OnZero(func() { fired = true })
	if !fired {
		t.Fatal("OnZero at zero count did not fire")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	var w WaitGroup
	defer func() {
		if recover() == nil {
			t.Error("Done below zero did not panic")
		}
	}()
	w.Done()
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{500, "500ps"},
		{2 * Nanosecond, "2ns"},
		{3 * Microsecond, "3us"},
		{4 * Millisecond, "4ms"},
		{5 * Second, "5s"},
		{-2 * Nanosecond, "-2ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(2_500_000) // 2.5us
	if tm.Micros() != 2.5 {
		t.Errorf("Micros = %v", tm.Micros())
	}
	if tm.Nanos() != 2500 {
		t.Errorf("Nanos = %v", tm.Nanos())
	}
	if got := (3 * Microsecond).Std(); got != 3*time.Microsecond {
		t.Errorf("Std = %v", got)
	}
}

func TestPerSecond(t *testing.T) {
	if r := PerSecond(100, Second); r != 100 {
		t.Errorf("PerSecond = %v, want 100", r)
	}
	if r := PerSecond(100, 0); r != 0 {
		t.Errorf("PerSecond over 0 = %v, want 0", r)
	}
	if r := PerSecond(5, 500*Millisecond); r != 10 {
		t.Errorf("PerSecond = %v, want 10", r)
	}
}

// Property: regardless of the (time, payload) schedule, the kernel dispatches
// in non-decreasing time order and FIFO within equal times.
func TestKernelDispatchOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		type stamp struct {
			at  Time
			seq int
		}
		var got []stamp
		for i, r := range raw {
			at := Time(r % 64) // force many collisions
			i := i
			k.At(at, func() { got = append(got, stamp{at, i}) })
		}
		k.Run()
		if len(got) != len(raw) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// TestTickerRejectsNonPositivePeriod: a zero or negative period would
// self-schedule at the same instant forever; the kernel must refuse it.
func TestTickerRejectsNonPositivePeriod(t *testing.T) {
	for _, period := range []Duration{0, -5} {
		k := NewKernel()
		mustPanic(t, fmt.Sprintf("Ticker(%d)", period), func() {
			k.Ticker(period, func() bool { return true })
		})
	}
}

// stepRec records the instant of every dispatch and calls Stop once stopAt
// events have fired (0 = never). A dispatch with arg 1 also posts a
// follow-up at its own instant, through the immediate ring.
type stepRec struct {
	k      *Kernel
	fired  []Time
	stopAt int
}

func (r *stepRec) Handle(arg uint64) {
	r.fired = append(r.fired, r.k.Now())
	if arg == 1 {
		r.k.PostH(r, 0)
	}
	if len(r.fired) == r.stopAt {
		r.k.Stop()
	}
}

// TestKernelStepTo checks StepTo(t) wherever the event at exactly t waits
// when the step ends: events before t fire, the event at t stays pending
// until the next Run, and the clock reads t. Each case with events before
// t runs a second time with Stop called by the last of them, which must
// leave the clock at that event rather than at t.
func TestKernelStepTo(t *testing.T) {
	const d = 4 * Nanosecond
	for _, tc := range []struct {
		name   string
		build  func(k *Kernel, r *stepRec)
		to     Time
		before []Time
		// waits reports whether the event at to waits where the case
		// says it does once StepTo returns.
		waits func(k *Kernel) bool
	}{
		{
			name: "heap",
			build: func(k *Kernel, r *stepRec) {
				for _, at := range []Time{10, 20, 30} {
					k.AtH(at, r, 0)
				}
			},
			to: 30, before: []Time{10, 20},
			waits: func(k *Kernel) bool { return len(k.pq) == 1 && k.pq[0].slot&laneFlag == 0 },
		},
		{
			// An event in the ring sits at the current instant, so the
			// ring can only hold the event at t when the kernel already
			// stands at t; ring events before t are the "ring-before"
			// case's follow-ups.
			name: "ring",
			build: func(k *Kernel, r *stepRec) {
				k.StepTo(30)
				k.PostH(r, 0)
			},
			to:    30,
			waits: func(k *Kernel) bool { return len(k.iq)-k.iqHead == 1 },
		},
		{
			name: "ring-before",
			build: func(k *Kernel, r *stepRec) {
				k.AtH(10, r, 1)
				k.AtH(30, r, 0)
			},
			to: 30, before: []Time{10, 10},
			waits: func(k *Kernel) bool { return len(k.pq) == 1 && len(k.iq) == k.iqHead },
		},
		{
			// The only event before the fillers is lane-held.
			name:  "lane-single",
			build: func(k *Kernel, r *stepRec) { laneKernel(t, k, r, d, 1) },
			to:    Time(d) + 1, before: []Time{Time(d)},
			waits: func(k *Kernel) bool { return k.QueueStats().Lanes == 1 },
		},
		{
			name:  "lane-resume",
			build: func(k *Kernel, r *stepRec) { laneKernel(t, k, r, d, 9) },
			to:    Time(d) + 5, before: []Time{Time(d), Time(d) + 1, Time(d) + 2, Time(d) + 3, Time(d) + 4},
			waits: func(k *Kernel) bool { return k.QueueStats().Lanes == 1 },
		},
		{
			// The event at t waits in a source behind the ones before it,
			// one of them at the same instant as another.
			name: "source",
			build: func(k *Kernel, r *stepRec) {
				src := k.NewSource()
				for _, at := range []Time{10, 20, 20, 30, 40} {
					src.AtH(at, r, 0)
				}
			},
			to: 30, before: []Time{10, 20, 20},
			waits: func(k *Kernel) bool {
				return k.QueueStats().Sources == 1 && len(k.pq) == 1 && k.pq[0].at == 30
			},
		},
		{
			// A deadline on a tick boundary: its slot starts at t, so the
			// timer is still linked into the wheel.
			name: "wheel",
			build: func(k *Kernel, r *stepRec) {
				k.ArmTimer(700*Nanosecond, r, 0)
				k.ArmTimer(2*Microsecond, r, 0)
			},
			to: Time(2 * Microsecond), before: []Time{Time(700 * Nanosecond)},
			waits: func(k *Kernel) bool { return k.tw.count == 1 },
		},
		{
			// A deadline inside a tick: its slot starts before t, so the
			// timer has been collected into the heap but must not fire.
			name: "wheel-mid-tick",
			build: func(k *Kernel, r *stepRec) {
				k.ArmTimer(700*Nanosecond, r, 0)
				k.ArmTimer(1500*Nanosecond, r, 0)
			},
			to: Time(1500 * Nanosecond), before: []Time{Time(700 * Nanosecond)},
			waits: func(k *Kernel) bool { return k.tw.count == 0 && k.tw.pendingHeap == 1 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			r := &stepRec{k: k}
			tc.build(k, r)
			if got := k.StepTo(tc.to); got != tc.to || k.Now() != tc.to {
				t.Fatalf("StepTo(%v) = %v, Now() = %v", tc.to, got, k.Now())
			}
			if fmt.Sprint(r.fired) != fmt.Sprint(tc.before) {
				t.Fatalf("StepTo(%v) dispatched at %v, want %v", tc.to, r.fired, tc.before)
			}
			if !tc.waits(k) {
				t.Fatalf("the event at %v is not where the case expects it (%+v)", tc.to, k.QueueStats())
			}
			mustPanic(t, "StepTo backwards", func() { k.StepTo(tc.to - 1) })
			pending := k.Pending()
			k.Run()
			if len(r.fired) <= len(tc.before) || r.fired[len(tc.before)] != tc.to {
				t.Fatalf("the next Run dispatched %v after %v, want the event at %v first", r.fired[len(tc.before):], tc.before, tc.to)
			}
			if got := len(r.fired) - len(tc.before); got != pending {
				t.Fatalf("the next Run dispatched %d events, %d were pending", got, pending)
			}
			if len(tc.before) == 0 {
				return
			}

			k = NewKernel()
			r = &stepRec{k: k}
			tc.build(k, r)
			r.stopAt = len(r.fired) + len(tc.before)
			last := tc.before[len(tc.before)-1]
			if got := k.StepTo(tc.to); got != last || k.Now() != last {
				t.Fatalf("StepTo(%v) stopped by the event at %v = %v, Now() = %v", tc.to, last, got, k.Now())
			}
			if fmt.Sprint(r.fired) != fmt.Sprint(tc.before) {
				t.Fatalf("stopped StepTo(%v) dispatched at %v, want %v", tc.to, r.fired, tc.before)
			}
		})
	}
}

// TestSourceOutOfOrderAppendPanics: a source append before the source's
// latest, or before now, is a model bug, and the panic names both
// instants.
func TestSourceOutOfOrderAppendPanics(t *testing.T) {
	for _, tc := range []struct {
		name      string
		now, tail Time
		at        Time
		want      []string
	}{
		{"before tail", 0, 30 * Time(Nanosecond), 20 * Time(Nanosecond), []string{"20ns", "30ns"}},
		{"before now", 50 * Time(Nanosecond), 0, 40 * Time(Nanosecond), []string{"40ns", "50ns"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			k.StepTo(tc.now)
			src := k.NewSource()
			nop := Func(func() {})
			if tc.tail > 0 {
				src.AtH(tc.tail, nop, 0)
			}
			defer func() {
				msg := fmt.Sprint(recover())
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Fatalf("panic %q does not name %s", msg, w)
					}
				}
			}()
			src.AtH(tc.at, nop, 0)
		})
	}
}

// TestSourcePendingAndStats: Pending counts every event a source holds,
// not only its head, so a drained-kernel check sees them, and QueueStats
// reports the source's traffic. An append at the current instant waits in
// the source too and still fires in seq order with the ring.
func TestSourcePendingAndStats(t *testing.T) {
	k := NewKernel()
	r := &stepRec{k: k}
	a, b := k.NewSource(), k.NewSource()
	a.AtH(10, r, 0)
	a.AtH(10, r, 0)
	a.AtH(40, r, 0)
	b.AtH(20, r, 0)
	if got := k.Pending(); got != 4 {
		t.Fatalf("Pending() = %d with four source-held events, want 4", got)
	}
	if qs := k.QueueStats(); qs.ToSources != 4 || qs.Sources != 2 || qs.SourcesHigh != 2 || qs.HeapHigh != 2 {
		t.Fatalf("QueueStats() = %+v", qs)
	}
	k.StepTo(11)
	if got := k.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after the two events at 10, want 2", got)
	}
	var order []int
	k.PostH(Func(func() { order = append(order, 1) }), 0)
	k.NewSource().AtH(11, Func(func() { order = append(order, 2) }), 0)
	k.PostH(Func(func() { order = append(order, 3) }), 0)
	k.StepTo(12)
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("an append at now fired in order %v, want [1 2 3]", order)
	}
	k.Run()
	if qs := k.QueueStats(); k.Pending() != 0 || qs.Sources != 0 || qs.ToSources != 5 {
		t.Fatalf("drained: Pending() = %d, %+v", k.Pending(), qs)
	}
	if fmt.Sprint(r.fired) != "[10ps 10ps 20ps 40ps]" {
		t.Fatalf("fired at %v", r.fired)
	}
}

// laneKernel brings k to now = n with a deep heap of far-future fillers,
// one event of delay d at d in the heap (its delay only tagged the lane
// slot) and n more, at d+1 … d+n, waiting in the lane.
func laneKernel(t *testing.T, k *Kernel, h Handler, d Duration, n int) {
	for i := 0; i < 2*laneGate; i++ {
		k.AtH(Time(Second)+Time(i), h, 0)
	}
	k.AfterH(d, h, 0)
	for i := 1; i <= n; i++ {
		k.StepTo(Time(i))
		k.AfterH(d, h, 0)
	}
	if qs := k.QueueStats(); qs.Lanes != 1 || qs.ToLanes != uint64(n) {
		t.Fatalf("setup: %+v, want %d lane-held events", qs, n)
	}
}
