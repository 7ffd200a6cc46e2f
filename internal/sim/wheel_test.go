package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// --- differential property test -------------------------------------------
//
// Drive identical randomized arm/cancel/advance schedules through the
// kernel's timer wheel and through a trivially correct sort-based reference
// model, and require the exact same firing sequence (id, time, order).

// refTimer is the reference model's record of one armed timer.
type refTimer struct {
	id  int
	at  Time
	seq uint64
}

// fireLog records wheel-side firings via the Handler interface.
type fireLog struct {
	k     *Kernel
	fired []struct {
		id int
		at Time
	}
}

func (f *fireLog) Handle(arg uint64) {
	f.fired = append(f.fired, struct {
		id int
		at Time
	}{int(arg), f.k.Now()})
}

func TestTimerWheelDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1337, 99991} {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			k := NewKernel()
			log := &fireLog{k: k}

			type armed struct {
				tid TimerID
				ref refTimer
			}
			live := make(map[int]armed)
			var model []refTimer
			nextID := 0

			// Delay distribution mixes all wheel levels plus the heap
			// fallback: sub-tick, level 0-3 spans, and beyond-span arms.
			randDelay := func() Duration {
				switch rng.Intn(6) {
				case 0:
					return Duration(rng.Int63n(int64(Microsecond))) // sub-tick
				case 1:
					return Duration(rng.Int63n(int64(60 * Microsecond)))
				case 2:
					return Duration(rng.Int63n(int64(4 * Millisecond)))
				case 3:
					return Duration(rng.Int63n(int64(250 * Millisecond)))
				case 4:
					return Duration(rng.Int63n(int64(16 * Second)))
				default:
					return Duration(int64(17*Second) + rng.Int63n(int64(Second)))
				}
			}

			// drainDue moves every model timer with deadline <= target into
			// the expected firing sequence in (at, seq) dispatch order.
			var wantFired []refTimer
			drainDue := func(target Time) {
				var due, rest []refTimer
				for _, m := range model {
					if m.at <= target {
						due = append(due, m)
					} else {
						rest = append(rest, m)
					}
				}
				sort.Slice(due, func(a, b int) bool {
					if due[a].at != due[b].at {
						return due[a].at < due[b].at
					}
					return due[a].seq < due[b].seq
				})
				wantFired = append(wantFired, due...)
				model = rest
				for _, m := range due {
					delete(live, m.id)
				}
			}

			steps := 400
			for i := 0; i < steps; i++ {
				switch op := rng.Intn(10); {
				case op < 6: // arm
					d := randDelay()
					id := nextID
					nextID++
					tid := k.ArmTimer(d, log, uint64(id))
					rt := refTimer{id: id, at: k.Now().Add(d), seq: k.seq}
					live[id] = armed{tid: tid, ref: rt}
					model = append(model, rt)
				case op < 8: // cancel a random live timer
					for id, a := range live { // map iteration: any one element
						if !k.CancelTimer(a.tid) {
							t.Fatalf("seed %d: cancel of live timer %d reported not pending", seed, id)
						}
						if k.CancelTimer(a.tid) {
							t.Fatalf("seed %d: double cancel of timer %d reported pending", seed, id)
						}
						delete(live, id)
						for j := range model {
							if model[j].id == id {
								model = append(model[:j], model[j+1:]...)
								break
							}
						}
						break
					}
				default: // advance: run until some instant, firing due timers
					target := k.Now().Add(Duration(rng.Int63n(int64(5 * Millisecond))))
					k.RunUntil(target)
					drainDue(target)
				}
			}
			// Drain everything still armed.
			k.Run()
			drainDue(MaxTime)

			if len(log.fired) != len(wantFired) {
				t.Fatalf("seed %d: wheel fired %d timers, model expects %d",
					seed, len(log.fired), len(wantFired))
			}
			for i, f := range log.fired {
				if f.id != wantFired[i].id || f.at != wantFired[i].at {
					t.Fatalf("seed %d: firing %d = (id %d, %v), model expects (id %d, %v)",
						seed, i, f.id, f.at, wantFired[i].id, wantFired[i].at)
				}
			}
			if len(live) != 0 {
				t.Fatalf("seed %d: %d timers still live after drain", seed, len(live))
			}
			st := k.TimerStats()
			if st.Pending != 0 {
				t.Fatalf("seed %d: TimerStats.Pending = %d after drain", seed, st.Pending)
			}
			if got, want := st.Armed, uint64(nextID); got != want {
				t.Fatalf("seed %d: Armed = %d, want %d", seed, got, want)
			}
			if st.Fired+st.Cancelled != st.Armed {
				t.Fatalf("seed %d: Fired(%d)+Cancelled(%d) != Armed(%d)", seed, st.Fired, st.Cancelled, st.Armed)
			}
			if uint64(len(log.fired)) != st.Fired {
				t.Fatalf("seed %d: log has %d firings, stats say %d", seed, len(log.fired), st.Fired)
			}
		})
	}
}

// TestTimerWheelFiringOrder checks the determinism keystone directly: a
// population of timers armed in random order fires in exactly (deadline,
// arm-order) sequence, and each fires at precisely its deadline — never at
// a slot boundary.
func TestTimerWheelFiringOrder(t *testing.T) {
	for _, seed := range []int64{5, 17, 123} {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		log := &fireLog{k: k}

		type exp struct {
			id  int
			at  Time
			seq int // arm order
		}
		var want []exp
		n := 500
		for i := 0; i < n; i++ {
			// Deliberately collide deadlines (coarse quantization) so the
			// seq tiebreak is exercised, and include same-instant arms.
			d := Duration(rng.Int63n(40)) * 50 * Microsecond
			k.ArmTimer(d, log, uint64(i))
			want = append(want, exp{id: i, at: k.Now().Add(d), seq: i})
		}
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		k.Run()
		if len(log.fired) != n {
			t.Fatalf("seed %d: fired %d of %d", seed, len(log.fired), n)
		}
		for i, f := range log.fired {
			if f.id != want[i].id || f.at != want[i].at {
				t.Fatalf("seed %d: firing %d = (id %d, %v), want (id %d, %v)",
					seed, i, f.id, f.at, want[i].id, want[i].at)
			}
		}
	}
}

// TestTimerWheelInterleavesWithEvents checks that wheel timers merge into
// the (time, seq) order of ordinary At/AtH events: a timer and an event at
// the same instant dispatch in arm order regardless of which waits where.
func TestTimerWheelInterleavesWithEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	log := Func(func() { order = append(order, "timer") })

	k.After(100*Microsecond, func() { order = append(order, "event-before") })
	k.ArmTimer(100*Microsecond, log, 0)
	k.After(100*Microsecond, func() { order = append(order, "event-after") })
	k.Run()

	want := []string{"event-before", "timer", "event-after"}
	if len(order) != len(want) {
		t.Fatalf("dispatched %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", order, want)
		}
	}
}

// --- stale cancel after recycle -------------------------------------------
//
// Mirrors the ARQ use-after-recycle suite: a TimerID held across its
// timer's firing (or cancellation) must become inert even after the
// underlying cell is recycled by a later arm — cancelling it must not
// disturb the new tenant.

func TestTimerWheelStaleCancelAfterRecycle(t *testing.T) {
	k := NewKernel()
	log := &fireLog{k: k}

	first := k.ArmTimer(10*Microsecond, log, 1)
	k.Run() // timer 1 fires; its cell returns to the free list
	if len(log.fired) != 1 || log.fired[0].id != 1 {
		t.Fatalf("first timer did not fire: %+v", log.fired)
	}
	if first.Active() {
		t.Fatal("fired TimerID still reports Active")
	}

	// Recycle: the next arm reuses the freed cell (LIFO free list).
	second := k.ArmTimer(10*Microsecond, log, 2)
	if second.c != first.c {
		t.Fatalf("free list did not recycle the cell (%p vs %p)", second.c, first.c)
	}
	if k.CancelTimer(first) {
		t.Fatal("stale cancel of recycled cell reported a pending timer")
	}
	if !second.Active() {
		t.Fatal("stale cancel killed the cell's new tenant")
	}
	k.Run()
	if len(log.fired) != 2 || log.fired[1].id != 2 {
		t.Fatalf("second tenant did not fire: %+v", log.fired)
	}

	// Same property for a cancel/cancel pair.
	third := k.ArmTimer(10*Microsecond, log, 3)
	if !k.CancelTimer(third) {
		t.Fatal("cancel of live timer reported not pending")
	}
	fourth := k.ArmTimer(10*Microsecond, log, 4)
	if fourth.c != third.c {
		t.Fatalf("free list did not recycle the cancelled cell")
	}
	if k.CancelTimer(third) {
		t.Fatal("stale cancel (after cancel) reported a pending timer")
	}
	k.Run()
	if len(log.fired) != 3 || log.fired[2].id != 4 {
		t.Fatalf("timer 4 did not fire: %+v", log.fired)
	}
}

// TestTimerWheelCancelCollected cancels a timer after it has been collected
// into the heap but before it dispatches: the in-heap entry must
// no-op and the id must read as cancelled.
func TestTimerWheelCancelCollected(t *testing.T) {
	k := NewKernel()
	log := &fireLog{k: k}

	// The victim's deadline (10.5µs) shares a 1µs wheel slot with the
	// driver event at 10µs, so when step considers the 10µs event the
	// whole slot is collected into the heap first. Cancelling
	// from inside that event exercises the collected-cell cancel path.
	victim := k.ArmTimer(Duration(10500*Nanosecond), log, 1)
	k.After(10*Microsecond, func() {
		if victim.c.lvl != cellPending {
			t.Fatalf("victim not collected yet (lvl %d); test premise broken", victim.c.lvl)
		}
		if !k.CancelTimer(victim) {
			t.Fatal("cancel of collected timer reported not pending")
		}
	})
	k.After(20*Microsecond, func() {})
	k.Run()
	if len(log.fired) != 0 {
		t.Fatalf("cancelled collected timer fired: %+v", log.fired)
	}
	st := k.TimerStats()
	if st.Cancelled != 1 || st.Fired != 0 || st.Pending != 0 {
		t.Fatalf("stats after collected-cancel: %+v", st)
	}
}

// TestTimerWheelZeroAndFallback covers the edges: a zero-delay arm fires in
// Post position at the current instant, and beyond-span arms take the heap
// fallback yet stay cancellable.
func TestTimerWheelZeroAndFallback(t *testing.T) {
	k := NewKernel()
	log := &fireLog{k: k}

	k.ArmTimer(0, log, 1)
	k.Run()
	if len(log.fired) != 1 || log.fired[0].at != 0 {
		t.Fatalf("zero-delay arm: %+v", log.fired)
	}

	far := k.ArmTimer(30*Second, log, 2) // beyond the 16.8s wheel span
	if st := k.TimerStats(); st.Fallback != 1 {
		t.Fatalf("expected heap fallback, stats %+v", st)
	}
	if !k.CancelTimer(far) {
		t.Fatal("fallback timer not cancellable")
	}
	k.Run()
	if len(log.fired) != 1 {
		t.Fatalf("cancelled fallback timer fired: %+v", log.fired)
	}

	far2 := k.ArmTimer(30*Second, log, 3)
	_ = far2
	k.Run()
	if len(log.fired) != 2 || log.fired[1].id != 3 {
		t.Fatalf("fallback timer did not fire: %+v", log.fired)
	}
}

// TestTimerWheelWarmedArmCancelAllocs: the arm/cancel churn path must not
// allocate once the cell pool is warmed.
func TestTimerWheelWarmedArmCancelAllocs(t *testing.T) {
	k := NewKernel()
	log := &fireLog{k: k}
	// Warm the pool and the heaps.
	for i := 0; i < 256; i++ {
		id := k.ArmTimer(Duration(i+1)*Microsecond, log, uint64(i))
		if i%2 == 0 {
			k.CancelTimer(id)
		}
	}
	k.Run()
	log.fired = log.fired[:0]
	allocs := testing.AllocsPerRun(1000, func() {
		id := k.ArmTimer(100*Microsecond, log, 0)
		k.CancelTimer(id)
	})
	if allocs != 0 {
		t.Fatalf("warmed arm/cancel allocates %.1f per op", allocs)
	}
}
