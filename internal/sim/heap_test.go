package sim

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"
)

// before is the dispatch order: earliest instant first, scheduling order
// within an instant.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// mirror is a sort-based reference priority queue with the kernel's
// (at, seq) contract, used to cross-check the 4-ary heap.
type mirror []event

func (m *mirror) add(e event) { *m = append(*m, e) }

// min returns the index of the minimum pending event by (at, seq).
func (m mirror) min() int {
	best := 0
	for i := 1; i < len(m); i++ {
		if m[i].before(m[best]) {
			best = i
		}
	}
	return best
}

func (m *mirror) remove(i int) {
	q := *m
	q[i] = q[len(q)-1]
	*m = q[:len(q)-1]
}

// TestHeapMatchesReference drives random schedule/dispatch interleavings —
// including events scheduled from inside running callbacks — and checks that
// every dispatch is exactly the (at, seq) minimum of a linear-scan reference
// holding the same pending set.
func TestHeapMatchesReference(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := NewRand(uint64(trial) + 1)
		k := NewKernel()
		var ref mirror
		scheduled, dispatched := 0, 0
		const totalEvents = 400

		var schedule func()
		schedule = func() {
			if scheduled >= totalEvents {
				return
			}
			scheduled++
			at := k.Now().Add(Duration(rng.Intn(64)))
			seq := k.seq + 1 // the kernel assigns this seq inside At
			fn := func() {
				i := ref.min()
				e := ref[i]
				if e.at != k.Now() || e.seq != seq {
					t.Fatalf("trial %d: dispatched (at=%v seq=%d), reference min (at=%v seq=%d)",
						trial, k.Now(), seq, e.at, e.seq)
				}
				ref.remove(i)
				dispatched++
				// Occasionally fan out more work from inside a callback to
				// exercise schedule-during-dispatch interleavings.
				for n := rng.Intn(3); n > 0; n-- {
					schedule()
				}
			}
			ref.add(event{at: at, seq: seq})
			k.At(at, fn)
		}
		for i := 0; i < 32; i++ {
			schedule()
		}
		k.Run()
		if dispatched != scheduled {
			t.Fatalf("trial %d: dispatched %d of %d events", trial, dispatched, scheduled)
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: %d reference events never dispatched", trial, len(ref))
		}
	}
}

// TestHeapPushPopSortedOrder drains a randomly filled heap directly and
// compares against a stable sort.
func TestHeapPushPopSortedOrder(t *testing.T) {
	rng := NewRand(7)
	var h eventPQ
	var want []event
	for i := 0; i < 2000; i++ {
		// slot mirrors seq so the popped event identifies itself.
		e := event{at: Time(rng.Intn(100)), seq: uint64(i), slot: uint64(i)}
		h.push(e.at, e.seq, e.slot)
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	for i, w := range want {
		at, slot := h.pop()
		if at != w.at || slot != w.seq {
			t.Fatalf("pop %d = (at=%v seq=%d), want (at=%v seq=%d)", i, at, slot, w.at, w.seq)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

// handlerProbe records dispatch order for TestClosureAndHandlerEventsInterleave.
type handlerProbe struct {
	order *[]uint64
}

func (p *handlerProbe) Handle(arg uint64) { *p.order = append(*p.order, arg) }

// TestClosureAndHandlerEventsInterleave pins the one-queue contract: At
// closures (wrapped in Func) and AtH handlers interleave strictly by
// (at, seq), including closures and handlers at equal instants and
// same-instant work that rides the immediate ring.
func TestClosureAndHandlerEventsInterleave(t *testing.T) {
	rng := NewRand(11)
	k := NewKernel()
	var order []uint64
	probe := &handlerProbe{order: &order}
	const total = 500
	want := make([]uint64, 0, total)
	type sched struct {
		at  Time
		id  uint64
		use bool // AtH rather than At
	}
	var plan []sched
	for i := 0; i < total; i++ {
		plan = append(plan, sched{at: Time(rng.Intn(40)), id: uint64(i), use: rng.Intn(2) == 0})
	}
	// The kernel assigns seq in scheduling order, so a stable sort by time
	// of the plan is the required dispatch order.
	for _, s := range plan {
		if s.use {
			k.AtH(s.at, probe, s.id)
		} else {
			id := s.id
			k.At(s.at, func() { order = append(order, id) })
		}
	}
	for at := Time(0); at < 40; at++ {
		for _, s := range plan {
			if s.at == at {
				want = append(want, s.id)
			}
		}
	}
	k.Run()
	if len(order) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch %d = event %d, want %d", i, order[i], want[i])
		}
	}
}

// TestSchedulePathZeroAlloc pins the tentpole guarantee: once the heap has
// grown to its working depth, scheduling and dispatching allocate nothing.
func TestSchedulePathZeroAlloc(t *testing.T) {
	k := NewKernel()
	// Pre-grow the heap's backing array well past the working set.
	for i := 0; i < 1024; i++ {
		k.At(Time(i), func() {})
	}
	k.Run()
	fn := func() {}
	var h handlerProbe
	order := make([]uint64, 0, 4096)
	h.order = &order
	for _, tc := range []struct {
		name     string
		schedule func()
	}{
		{"After", func() { k.After(Nanosecond, fn) }},
		{"At", func() { k.At(k.Now().Add(Nanosecond), fn) }},
		{"Post", func() { k.Post(fn) }},
		{"AfterH", func() { k.AfterH(Nanosecond, &h, 0) }},
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			order = order[:0]
			tc.schedule()
			k.RunUntil(k.Now().Add(Nanosecond))
		})
		if allocs != 0 {
			t.Errorf("%s schedule/dispatch cycle allocates %.1f per op, want 0", tc.name, allocs)
		}
	}

	// The lane path: with the heap past the gate, three events per cycle
	// share a delay. The first goes to the heap and records the delay, the
	// second opens a lane while the first is pending, and the third
	// appends to it and is dispatched through the lane's re-keyed entry.
	for i := 0; i < 2*laneGate; i++ {
		k.AtH(Time(Second)+Time(i), &h, 0)
	}
	laneCycle := func() {
		order = order[:0]
		k.AfterH(Nanosecond, &h, 0)
		k.AfterH(Nanosecond, &h, 0)
		k.AfterH(Nanosecond, &h, 0)
		k.RunUntil(k.Now().Add(Nanosecond))
	}
	for i := 0; i < 64; i++ { // grow the lane's ring
		laneCycle()
	}
	before := k.QueueStats().ToLanes
	if allocs := testing.AllocsPerRun(1000, laneCycle); allocs != 0 {
		t.Errorf("lane schedule/dispatch cycle allocates %.1f per op, want 0", allocs)
	}
	if got := k.QueueStats().ToLanes - before; got != 2002 {
		t.Errorf("lane cycle routed %d events to lanes, want 2002 (two of every three)", got)
	}
}

// TestEventRecordPointerFree pins the heap record's layout: 24 bytes with
// no pointer field, so sifting needs no write barrier and the GC never
// scans the heap's backing array.
func TestEventRecordPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 24 {
		t.Errorf("event is %d bytes, want 24", n)
	}
	rt := reflect.TypeOf(event{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Func,
			reflect.Map, reflect.Slice, reflect.Chan, reflect.String:
			t.Errorf("event.%s is a %v, which holds a pointer", f.Name, f.Type.Kind())
		}
	}
}

// checkSlots asserts the slot table's accounting: every slot either holds
// the callee of a heap entry or sits on the free list, exactly once, and
// a free slot references no handler.
func checkSlots(t *testing.T, k *Kernel) {
	t.Helper()
	used := 0
	for _, e := range k.pq {
		if e.slot&laneFlag == 0 {
			used++
			if k.slots[e.slot].h == nil {
				t.Fatalf("heap entry (at=%v seq=%d) parks no handler in slot %d", e.at, e.seq, e.slot)
			}
		}
	}
	seen := make([]bool, len(k.slots))
	for _, s := range k.free {
		if seen[s] {
			t.Fatalf("slot %d is on the free list twice", s)
		}
		seen[s] = true
		if k.slots[s].h != nil {
			t.Fatalf("free slot %d still references a handler", s)
		}
	}
	if used+len(k.free) != len(k.slots) {
		t.Fatalf("%d parked + %d free slots, but the table has %d", used, len(k.free), len(k.slots))
	}
	if got := k.QueueStats().Parked; got != used {
		t.Fatalf("QueueStats().Parked = %d, want %d", got, used)
	}
}

// TestSlotTableAccounting drives heap, lane, ring and timer traffic —
// including cancelled timers collected into the heap — and checks the
// slot table after every dispatch and once the kernel drains.
func TestSlotTableAccounting(t *testing.T) {
	rng := NewRand(5)
	k := NewKernel()
	var ids []TimerID
	var h handlerProbe
	order := make([]uint64, 0, 8192)
	h.order = &order
	scheduled := 0
	var spawn func()
	spawn = func() {
		checkSlots(t, k)
		for n := rng.Intn(3); n > 0 && scheduled < 3000; n-- {
			scheduled++
			switch rng.Intn(5) {
			case 0:
				k.Post(spawn)
			case 1:
				k.AfterH(Duration(1+rng.Intn(4))*Nanosecond, &h, 0)
			case 2:
				ids = append(ids, k.ArmTimer(Duration(rng.Intn(3000))*Nanosecond, Func(spawn), 0))
			case 3:
				if len(ids) > 0 {
					k.CancelTimer(ids[rng.Intn(len(ids))])
				}
				k.After(Duration(rng.Intn(50))*Nanosecond, spawn)
			default:
				k.After(Duration(rng.Intn(50))*Nanosecond, spawn)
			}
		}
	}
	for i := 0; i < 2*laneGate; i++ {
		k.At(Time(i), spawn)
	}
	k.Run()
	checkSlots(t, k)
	if qs := k.QueueStats(); qs.Parked != 0 || qs.ToLanes == 0 || len(k.free) != len(k.slots) {
		t.Fatalf("drained kernel: %+v, %d of %d slots free", qs, len(k.free), len(k.slots))
	}
}
