package sim

import (
	"fmt"
)

// Handler is the one event callee the kernel and its resources store.
// Components that schedule on every packet hop implement Handle on a
// long-lived object and are dispatched with AtH/AfterH/PostH. Scheduling a
// method value (k.At(t, p.fire)) or a capturing func literal
// heap-allocates a closure per event; converting an existing object to a
// Handler interface value does not, so the steady-state datapath can
// schedule without touching the allocator. arg is an opaque payload
// handed back at dispatch — callees that need more context than one word
// carry it in the handler object itself (typically a free-listed
// continuation struct reused across dispatches).
type Handler interface {
	Handle(arg uint64)
}

// Func adapts a plain func() to Handler, ignoring arg. The closure entry
// points (At, After, Post) wrap their callback in it, so the kernel and
// its resources store one kind of callee. A func value is pointer-shaped,
// so the conversion to Handler does not allocate (TestSchedulePathZeroAlloc
// pins this); only building a capturing closure does. Func(nil) is a
// non-nil Handler that panics when dispatched.
type Func func()

// Handle implements Handler.
func (f Func) Handle(uint64) { f() }

// An event is one heap record: the instant, the seq that breaks ties so
// that events at equal timestamps run in scheduling order, and a slot.
// The slot either names the kernel's callee table entry holding the
// event's (Handler, arg), or, with laneFlag set, the fixed-delay lane or
// owner source whose head the entry stands for. The record is 24 bytes and
// holds no pointer, so sifting it needs no write barrier and the heap's
// backing array is never scanned by the GC.
type event struct {
	at   Time
	seq  uint64
	slot uint64
}

// laneFlag marks a heap entry that stands for a lane or a source; the low
// bits are its index in Kernel.lanes.
const laneFlag = 1 << 63

// A callee is the (Handler, arg) pair a heap event dispatches, parked in
// the kernel's slot table while the event waits.
type callee struct {
	h   Handler
	arg uint64
}

// eventPQ is a hand-rolled 4-ary min-heap ordered by (at, seq). It is
// monomorphic on purpose: no container/heap, because interface funneling
// would box one event per schedule, which at the simulator's event rates
// dominates the allocation profile. Storing events by value in a flat
// slice makes the schedule path allocation-free beyond slice growth, and
// the 4-ary shape halves the tree depth versus binary, trading a wider
// (cache-line-friendly) sibling scan for fewer levels per sift.
type eventPQ []event

// push inserts the event (at, seq, slot), sifting it up from the tail.
// Records go in and out as fields, never as event values, and move field
// by field: a struct passed through registers or copied whole is spilled
// word by word and reloaded in 16-byte halves, a store-forwarding stall
// on every schedule and dispatch.
func (h *eventPQ) push(at Time, seq, slot uint64) {
	q := *h
	if len(q) == cap(q) {
		q = append(q, event{})
	} else {
		q = q[:len(q)+1]
	}
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		e := &q[p]
		if at > e.at || (at == e.at && seq > e.seq) {
			break
		}
		d := &q[i]
		d.at, d.seq, d.slot = e.at, e.seq, e.slot
		i = p
	}
	e := &q[i]
	e.at, e.seq, e.slot = at, seq, slot
	*h = q
}

// pop removes the minimum and returns its instant and slot. It must not
// be called on an empty heap.
func (h *eventPQ) pop() (Time, uint64) {
	q := *h
	at, slot := q[0].at, q[0].slot
	n := len(q) - 1
	if n > 0 {
		last := &q[n]
		q[:n].siftDown(last.at, last.seq, last.slot)
	}
	*h = q[:n]
	return at, slot
}

// siftDown fills the hole at the root with (at, seq, slot), moving the
// hole down instead of swapping. pop fills it with the tail; a lane's or
// source's dispatch re-keys its own entry with its next head, which can
// only be later, so one sift replaces a pop and a push. The best child's
// key is kept in locals while the siblings are scanned, so no record is
// copied until the hole moves.
func (q eventPQ) siftDown(at Time, seq, slot uint64) {
	n := len(q)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		bat, bseq := q[c].at, q[c].seq
		for j := c + 1; j < end; j++ {
			if e := &q[j]; e.at < bat || (e.at == bat && e.seq < bseq) {
				m, bat, bseq = j, e.at, e.seq
			}
		}
		if at < bat || (at == bat && seq < bseq) {
			break
		}
		d := &q[i]
		d.at, d.seq, d.slot = bat, bseq, q[m].slot
		i = m
	}
	e := &q[i]
	e.at, e.seq, e.slot = at, seq, slot
}

// A ringEvent is an event scheduled at the kernel's current instant,
// queued in the immediate ring instead of the heap: a key equal to the
// running minimum would sift past every future event, so same-instant
// scheduling — the datapath's kick/Post chains — would pay the full heap
// depth. The ring appends in seq order (seq is monotonic), making it a
// FIFO that the dispatcher merges with the heap top by (at, seq).
type ringEvent struct {
	seq uint64
	arg uint64
	h   Handler
}

// A laneEvent is one event waiting in a lane or source. Both are FIFOs
// that are never sifted, so they keep the callee inline rather than in a
// slot.
type laneEvent struct {
	at  Time
	seq uint64
	arg uint64
	h   Handler
}

// A lane is a FIFO ring of events that were all scheduled with the same
// delay d. The clock never goes back and seq only grows, so events appended
// with a fixed delay arrive already sorted by (at, seq): only the head
// needs a place in the heap. A Source's FIFO is a lane too, keyed by its
// owner instead of by a delay.
type lane struct {
	d Duration
	// last is, for a delay lane, the instant of the latest delay-d event
	// sent to the heap; for a source, the instant of its latest append.
	last Time
	buf  []laneEvent // ring; length is zero or a power of two
	head int
	n    int
}

// add appends an event at the tail, doubling the ring when it is full.
func (l *lane) add(at Time, seq, arg uint64, h Handler) {
	if l.n == len(l.buf) {
		buf := make([]laneEvent, max(16, 2*len(l.buf)))
		c := copy(buf, l.buf[l.head:])
		copy(buf[c:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	e := &l.buf[(l.head+l.n)&(len(l.buf)-1)]
	e.at, e.seq, e.arg, e.h = at, seq, arg, h
	l.n++
}

const (
	// laneBits sizes the kernel's direct-mapped lane table. A rack-scale
	// pool schedules almost all of its future events with about fifteen
	// distinct delays (wire flights, delay lines, switch hops, ARQ and
	// DRAM continuations); 64 slots keep their collisions rare.
	laneBits  = 6
	laneSlots = 1 << laneBits

	// laneGate is the number of pending future events (heap entries plus
	// the events queued behind lane and source heads) from which AtH
	// routes through the lanes at all.
	// Below it a heap push is cheaper than the lane bookkeeping, so
	// single-testbed runs, whose heaps hold a handful of events, keep
	// the plain heap path.
	laneGate = 32
)

// laneSlot maps a delay to its slot in the lane table by a multiplicative
// (Fibonacci) hash, which spreads round picosecond delays across slots.
func laneSlot(d Duration) uint64 { return uint64(d) * 0x9e3779b97f4a7c15 >> (64 - laneBits) }

// Kernel is a single-threaded discrete-event scheduler: one (at, seq)
// heap, the immediate ring for same-instant events, fixed-delay lanes for
// future events whose delay repeats, owner sources for components whose
// own events come in (at, seq) order, and a timer wheel whose due timers
// are collected into the heap. The zero value is not usable; create
// kernels with NewKernel.
//
// The heap holds pointer-free records. An event that waits in the heap
// parks its (Handler, arg) in the slot table, a slice reused through a
// LIFO free list so a dispatch's follow-up schedule takes back the slot
// it just freed, still hot in cache; a lane's or source's entry names it
// instead.
//
// Every pending event waits in exactly one of these places, and each is
// sorted by (at, seq): the ring, every lane and every source because they
// are appended in seq order at non-decreasing instants (a source checks
// this on each append), the heap by construction. The heap holds each
// non-empty lane's and source's head and each collected timer, so its
// root is the minimum of everything except the ring and the wheel, which
// step and collectTimers merge in. (at, seq) is a strict total order, and
// any correct merge of sorted queues yields the same sequence, so where an
// event waits never changes when it fires: dispatch order, and with it
// every simulated result, is independent of how events are routed.
type Kernel struct {
	pq        eventPQ
	slots     []callee // callees of the heap's non-lane entries
	free      []uint32 // free slots, reused last-freed first
	iq        []ringEvent
	iqHead    int
	now       Time
	seq       uint64
	processed uint64

	// queued counts the events waiting in a lane or source behind its
	// head; the heads are counted by the heap entries standing for them.
	queued int

	// QueueStats counters.
	pqHigh      int
	toHeap      uint64
	toLanes     uint64
	lanesBusy   int
	lanesHigh   int
	toSources   uint64
	sourcesBusy int
	sourcesHigh int

	running bool
	stopped bool
	tw      timerWheel // cancellable timers (ArmTimer/CancelTimer)
	// lanes holds the laneSlots delay lanes, then one lane per Source.
	lanes []lane

	// publish holds the OnPublish hooks.
	publish []func()
}

// QueueStats reports where the kernel's future events waited, since the
// kernel was created.
type QueueStats struct {
	HeapHigh    int    // most entries the heap held at once; a busy lane or source is one entry
	ToLanes     uint64 // AtH/AfterH events past the current instant that waited in a lane
	ToHeap      uint64 // AtH/AfterH events past the current instant that waited in the heap
	ToSources   uint64 // Source.AtH events, each of which waited in its source
	Lanes       int    // lanes holding events now
	LanesHigh   int    // most lanes holding events at once
	Sources     int    // sources holding events now
	SourcesHigh int    // most sources holding events at once
	Parked      int    // slot-table entries holding a callee now; 0 once drained
}

// QueueStats returns the kernel's queue counters.
func (k *Kernel) QueueStats() QueueStats {
	return QueueStats{
		HeapHigh:    k.pqHigh,
		ToLanes:     k.toLanes,
		ToHeap:      k.toHeap,
		ToSources:   k.toSources,
		Lanes:       k.lanesBusy,
		LanesHigh:   k.lanesHigh,
		Sources:     k.sourcesBusy,
		SourcesHigh: k.sourcesHigh,
		Parked:      k.parked(),
	}
}

// parked counts the slot table's entries that hold a handler. Dispatch
// clears a slot before freeing it, so on a drained kernel this is zero
// exactly when no slot still references a callee.
func (k *Kernel) parked() int {
	n := 0
	for i := range k.slots {
		if k.slots[i].h != nil {
			n++
		}
	}
	return n
}

// NewKernel returns a kernel whose clock starts at time zero.
func NewKernel() *Kernel {
	k := &Kernel{lanes: make([]lane, laneSlots)}
	k.tw.nextLB = MaxTime
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports how many events are scheduled but not yet dispatched,
// including events in lanes and sources and timers still waiting in the
// wheel (collected timers are already in the heap and counted there).
func (k *Kernel) Pending() int {
	return len(k.pq) + k.queued + len(k.iq) - k.iqHead + k.tw.count
}

// Processed reports the total number of events dispatched so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// At schedules fn to run at the absolute instant t. Scheduling into the past
// panics: it indicates a model bug that would silently corrupt causality.
func (k *Kernel) At(t Time, fn func()) { k.AtH(t, Func(fn), 0) }

// After schedules fn to run d after the current instant. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) { k.AfterH(d, Func(fn), 0) }

// Post schedules fn at the current instant, after all events already
// scheduled for this instant.
func (k *Kernel) Post(fn func()) { k.AtH(k.now, Func(fn), 0) }

// AtH schedules h.Handle(arg) at the absolute instant t. Passing a
// pre-existing handler object instead of a freshly allocated closure lets
// steady-state callers schedule without allocating. At, After and Post
// funnel here, so every schedule draws from the same seq counter.
//
// Once the kernel holds laneGate future events, a future event rides the
// lane of its delay when the lane pays for itself: appending to a busy
// lane costs no heap operation at all, and an empty lane opens only when
// its delay repeats while the previous event of that delay is still
// pending, so its one heap entry is likely to stand for several events.
// Everything else goes to the heap, and an empty slot retags to the delay
// it just saw. Below the gate lanes are left alone — a heap of a few
// entries is cheaper than the lane bookkeeping — and whatever they still
// hold drains.
func (k *Kernel) AtH(t Time, h Handler, arg uint64) {
	if t <= k.now {
		if t < k.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
		}
		k.seq++
		k.iq = append(k.iq, ringEvent{seq: k.seq, arg: arg, h: h})
		return
	}
	if h == nil {
		panic("sim: scheduling a nil handler")
	}
	k.seq++
	if len(k.pq)+k.queued >= laneGate && k.toLane(t, h, arg) {
		return
	}
	k.push(t, k.seq, arg, h)
	k.toHeap++
}

// toLane appends the event AtH is scheduling to the lane of its delay and
// reports true, or reports false when the event belongs in the heap; an
// empty slot then records the event's delay and instant.
func (k *Kernel) toLane(t Time, h Handler, arg uint64) bool {
	d := t.Sub(k.now)
	s := laneSlot(d)
	ln := &k.lanes[s]
	switch {
	case ln.n > 0:
		if ln.d != d {
			return false
		}
		k.queued++
	case ln.d == d && ln.last > k.now:
		k.pushEntry(t, k.seq, laneFlag|s)
		if k.lanesBusy++; k.lanesBusy > k.lanesHigh {
			k.lanesHigh = k.lanesBusy
		}
	default:
		ln.d, ln.last = d, t
		return false
	}
	ln.add(t, k.seq, arg, h)
	k.toLanes++
	return true
}

// push parks h and arg in a free slot and inserts the event into the
// heap.
func (k *Kernel) push(at Time, seq, arg uint64, h Handler) {
	var s uint32
	if n := len(k.free); n > 0 {
		s = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		s = uint32(len(k.slots))
		k.slots = append(k.slots, callee{})
	}
	c := &k.slots[s]
	c.h, c.arg = h, arg
	k.pushEntry(at, seq, uint64(s))
}

// pushEntry inserts a heap record and tracks the heap's high-water mark.
func (k *Kernel) pushEntry(at Time, seq, slot uint64) {
	k.pq.push(at, seq, slot)
	if len(k.pq) > k.pqHigh {
		k.pqHigh = len(k.pq)
	}
}

// AfterH schedules h.Handle(arg) d after the current instant.
func (k *Kernel) AfterH(d Duration, h Handler, arg uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtH(k.now.Add(d), h, arg)
}

// PostH schedules h.Handle(arg) at the current instant, after all events
// already scheduled for this instant.
func (k *Kernel) PostH(h Handler, arg uint64) { k.AtH(k.now, h, arg) }

// A Source is an event FIFO owned by one component, whose events the owner
// schedules in (at, seq) order. Like a delay lane, a source takes one heap
// entry for its head however many events it holds, so a component with
// many events in flight at varying delays (a cable's arrivals, each
// delayed by its wait for the wire) keeps the heap shallow. seq is drawn
// at append time exactly as by AtH, so where an event waits changes
// nothing about when it fires. The zero value is not usable; create
// sources with Kernel.NewSource.
type Source struct {
	k *Kernel
	i uint64 // index in k.lanes
}

// NewSource returns an empty source on k.
func (k *Kernel) NewSource() Source {
	k.lanes = append(k.lanes, lane{})
	return Source{k: k, i: uint64(len(k.lanes) - 1)}
}

// Len returns the number of events waiting in the source.
func (s Source) Len() int { return s.k.lanes[s.i].n }

// AtH appends h.Handle(arg) at the absolute instant t to the source. An
// instant before now, or before the source's latest append, panics: the
// first would corrupt causality and the second the source's order, and
// both are model bugs.
func (s Source) AtH(t Time, h Handler, arg uint64) {
	k := s.k
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if h == nil {
		panic("sim: scheduling a nil handler")
	}
	ln := &k.lanes[s.i]
	if t < ln.last {
		panic(fmt.Sprintf("sim: source event at %v before the source's latest at %v", t, ln.last))
	}
	ln.last = t
	k.seq++
	if ln.n > 0 {
		k.queued++
	} else {
		k.pushEntry(t, k.seq, laneFlag|s.i)
		if k.sourcesBusy++; k.sourcesBusy > k.sourcesHigh {
			k.sourcesHigh = k.sourcesBusy
		}
	}
	ln.add(t, k.seq, arg, h)
	k.toSources++
}

// Stop makes the currently executing Run/RunUntil/StepTo return after the
// current event completes. Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// step dispatches the earliest event across the heap (with the lanes it
// stands for) and the immediate ring. It reports false when no
// dispatchable events remain. seq values are globally unique, so the
// (at, seq) order is total and the merge never ties; ring entries all sit
// at the current instant, so the heap top precedes the ring head only when
// it shares that instant with a smaller seq.
func (k *Kernel) step(limit Time) bool {
	if k.tw.count > 0 {
		k.collectTimers(limit)
	}
	if k.iqHead < len(k.iq) &&
		!(len(k.pq) > 0 && k.pq[0].at == k.now && k.pq[0].seq < k.iq[k.iqHead].seq) {
		if k.now > limit {
			return false
		}
		e := k.iq[k.iqHead]
		k.iq[k.iqHead] = ringEvent{}
		k.iqHead++
		if k.iqHead == len(k.iq) { // drained: reuse the backing array
			k.iq = k.iq[:0]
			k.iqHead = 0
		}
		k.processed++
		e.h.Handle(e.arg)
		return true
	}
	if len(k.pq) == 0 || k.pq[0].at > limit {
		return false
	}
	if k.pq[0].slot&laneFlag != 0 {
		k.stepLane()
		return true
	}
	at, s := k.pq.pop()
	c := &k.slots[s]
	h, arg := c.h, c.arg
	c.h = nil // release the handler for GC
	k.free = append(k.free, uint32(s))
	k.now = at
	k.processed++
	h.Handle(arg)
	return true
}

// stepLane dispatches the head of the lane or source whose entry is the
// heap root. One with events left re-keys its entry with its next head,
// which is later than the one dispatched; an emptied one leaves the heap.
func (k *Kernel) stepLane() {
	slot := k.pq[0].slot
	i := slot &^ laneFlag
	ln := &k.lanes[i]
	e := &ln.buf[ln.head]
	at, h, arg := e.at, e.h, e.arg
	e.h = nil // release the handler for GC
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	if ln.n--; ln.n > 0 {
		nx := &ln.buf[ln.head]
		k.pq.siftDown(nx.at, nx.seq, slot)
		k.queued--
	} else {
		k.pq.pop()
		if i < laneSlots {
			k.lanesBusy--
		} else {
			k.sourcesBusy--
		}
	}
	k.now = at
	k.processed++
	h.Handle(arg)
}

// Run dispatches events until the queue drains or Stop is called, and
// returns the final simulated time.
func (k *Kernel) Run() Time { return k.RunUntil(MaxTime) }

// RunUntil dispatches events with timestamps <= limit, advances the clock to
// limit if it was reached with events still pending, runs the OnPublish
// hooks, and returns the final simulated time. Reentrant calls panic.
func (k *Kernel) RunUntil(limit Time) Time {
	if k.drain(limit) && limit != MaxTime && k.now < limit {
		k.now = limit
	}
	k.Publish()
	return k.now
}

// StepTo dispatches every event before t, then sets the clock to t unless
// Stop was called, in which case the clock stays at the stopping event,
// and runs the OnPublish hooks. It returns the final simulated time.
// Events at exactly t stay pending until the kernel next runs, so a driver
// can step a run in phases and act at each boundary before anything
// scheduled for it fires. A t before the current instant panics.
func (k *Kernel) StepTo(t Time) Time {
	if t < k.now {
		panic(fmt.Sprintf("sim: StepTo(%v) before now %v", t, k.now))
	}
	if k.drain(t - 1) {
		k.now = t
	}
	k.Publish()
	return k.now
}

// OnPublish registers fn to run at the kernel's publish points: each time
// Run, RunUntil or StepTo returns, and whenever Publish is called. The
// metrics plane reads components' counters there, between events, where
// no handler is half done.
func (k *Kernel) OnPublish(fn func()) { k.publish = append(k.publish, fn) }

// Publish runs the OnPublish hooks now. It schedules nothing and leaves
// the clock where it is, so a Ticker callback may call it to publish in
// the middle of a run.
func (k *Kernel) Publish() {
	for _, fn := range k.publish {
		fn()
	}
}

// drain dispatches events with timestamps <= limit until none remain or
// Stop is called, and reports whether it ran out rather than stopped.
func (k *Kernel) drain(limit Time) bool {
	if k.running {
		panic("sim: Kernel.Run called reentrantly")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for !k.stopped && k.step(limit) {
	}
	return !k.stopped
}

// tickerState is the re-arming handler behind Ticker. Each firing draws a
// fresh seq at arm time, exactly as the closure-based Ticker's After chain
// did, so converting Ticker to the wheel preserves event order.
type tickerState struct {
	k      *Kernel
	period Duration
	fn     func() bool
}

func (t *tickerState) Handle(uint64) {
	if t.fn() {
		t.k.ArmTimer(t.period, t, 0)
	}
}

// Ticker invokes fn every period until fn returns false. The first firing is
// one period from now.
func (k *Kernel) Ticker(period Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: Ticker period must be positive")
	}
	t := &tickerState{k: k, period: period, fn: fn}
	k.ArmTimer(period, t, 0)
}

// WaitGroup counts outstanding simulated activities and runs a completion
// callback when the count reaches zero. It mirrors sync.WaitGroup but is
// kernel-local and single-threaded.
type WaitGroup struct {
	n    int
	done func()
}

// Add increments the count by delta.
func (w *WaitGroup) Add(delta int) { w.n += delta }

// Done decrements the count; when it reaches zero the completion callback
// fires (once). Going negative panics.
func (w *WaitGroup) Done() {
	w.n--
	if w.n < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if w.n == 0 && w.done != nil {
		fn := w.done
		w.done = nil
		fn()
	}
}

// OnZero registers the completion callback. If the count is already zero the
// callback fires immediately.
func (w *WaitGroup) OnZero(fn func()) {
	if w.n == 0 {
		fn()
		return
	}
	w.done = fn
}
