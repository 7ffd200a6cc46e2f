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

// An event is a Handler/arg pair scheduled at an instant. seq breaks ties
// so that events at equal timestamps run in scheduling order.
type event struct {
	at  Time
	seq uint64
	arg uint64
	h   Handler
}

// before is the dispatch order: earliest instant first, scheduling order
// within an instant.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventPQ is a hand-rolled 4-ary min-heap ordered by (at, seq). It is
// monomorphic on purpose: no container/heap, because interface funneling
// would box one event per schedule, which at the simulator's event rates
// dominates the allocation profile. Storing events by value in a flat
// slice makes the schedule path allocation-free beyond slice growth, and
// the 4-ary shape halves the tree depth versus binary, trading a wider
// (cache-line-friendly) sibling scan for fewer levels per sift.
//
// An entry with a nil handler stands for a fixed-delay lane: its key is
// the lane head's (at, seq) and its arg the lane's slot in Kernel.lanes.
// Every other entry is one pending event.
type eventPQ []event

// push inserts the event (at, seq, arg, hd), sifting it up from the tail.
// It takes the fields rather than an event value, and pop returns them
// rather than an event: passing the 40-byte struct through registers makes
// the compiler spill it word by word and reload it in 16-byte halves, a
// store-forwarding stall on every schedule and dispatch.
func (h *eventPQ) push(at Time, seq, arg uint64, hd Handler) {
	q := *h
	if len(q) == cap(q) {
		q = append(q, event{})
	} else {
		q = q[:len(q)+1]
	}
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if at > q[p].at || (at == q[p].at && seq > q[p].seq) {
			break
		}
		q[i] = q[p]
		i = p
	}
	// Field by field: a composite literal is built on the stack and
	// copied, with the same stall.
	e := &q[i]
	e.at, e.seq, e.arg, e.h = at, seq, arg, hd
	*h = q
}

// pop removes the minimum and returns its instant, handler and arg. It
// must not be called on an empty heap.
func (h *eventPQ) pop() (Time, Handler, uint64) {
	q := *h
	at, hd, arg := q[0].at, q[0].h, q[0].arg
	n := len(q) - 1
	if n > 0 {
		// The tail is read and moved field by field, for the same reason
		// push writes it that way.
		last := &q[n]
		q[:n].siftDown(last.at, last.seq, last.arg, last.h)
	}
	q[n] = event{} // release the handler for GC
	*h = q[:n]
	return at, hd, arg
}

// siftDown fills the hole at the root with (at, seq, arg, hd), moving the
// hole down instead of swapping. pop fills it with the tail; a lane's
// dispatch re-keys its own entry with the lane's next head, which can only
// be later, so one sift replaces a pop and a push.
func (q eventPQ) siftDown(at Time, seq, arg uint64, hd Handler) {
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
		for j := c + 1; j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if at < q[m].at || (at == q[m].at && seq < q[m].seq) {
			break
		}
		q[i] = q[m]
		i = m
	}
	e := &q[i]
	e.at, e.seq, e.arg, e.h = at, seq, arg, hd
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

// A lane is a FIFO ring of events that were all scheduled with the same
// delay d. The clock never goes back and seq only grows, so events appended
// with a fixed delay arrive already sorted by (at, seq): only the head
// needs a place in the heap.
type lane struct {
	d    Duration
	last Time    // instant of the latest delay-d event sent to the heap
	buf  []event // ring; length is zero or a power of two
	head int
	n    int
}

// add appends an event at the tail, doubling the ring when it is full.
func (l *lane) add(at Time, seq, arg uint64, h Handler) {
	if l.n == len(l.buf) {
		buf := make([]event, max(16, 2*len(l.buf)))
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
	// lane-held events) from which AtH routes through the lanes at all.
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
// future events whose delay repeats, and a timer wheel whose due timers
// are collected into the heap. The zero value is not usable; create
// kernels with NewKernel.
//
// Every pending event waits in exactly one of these places, and each is
// sorted by (at, seq): the ring and every lane because they are appended
// in seq order at non-decreasing instants, the heap by construction. The
// heap holds each non-empty lane's head and each collected timer, so its
// root is the minimum of everything except the ring and the wheel, which
// step and collectTimers merge in. (at, seq) is a strict total order, and
// any correct merge of sorted queues yields the same sequence, so where an
// event waits never changes when it fires: dispatch order, and with it
// every simulated result, is independent of how events are routed.
type Kernel struct {
	pq        eventPQ
	iq        []ringEvent
	iqHead    int
	now       Time
	seq       uint64
	frontSeq  uint64
	processed uint64

	// laneExtra counts lane-held events behind their lane's head; the
	// heads are counted by the heap entries standing for them.
	laneExtra int

	// QueueStats counters.
	pqHigh    int
	toHeap    uint64
	toLanes   uint64
	lanesBusy int
	lanesHigh int

	running bool
	stopped bool
	tw      timerWheel // cancellable timers (ArmTimer/CancelTimer)
	lanes   [laneSlots]lane
}

// QueueStats reports where the kernel's future events waited, since the
// kernel was created.
type QueueStats struct {
	HeapHigh  int    // most entries the heap held at once; a busy lane is one entry
	ToLanes   uint64 // AtH/AfterH events past the current instant that waited in a lane
	ToHeap    uint64 // AtH/AfterH events past the current instant that waited in the heap
	Lanes     int    // lanes holding events now
	LanesHigh int    // most lanes holding events at once
}

// QueueStats returns the kernel's queue counters.
func (k *Kernel) QueueStats() QueueStats {
	return QueueStats{
		HeapHigh:  k.pqHigh,
		ToLanes:   k.toLanes,
		ToHeap:    k.toHeap,
		Lanes:     k.lanesBusy,
		LanesHigh: k.lanesHigh,
	}
}

// normalBand is the first seq value of the ordinary At/AtH band. Seq
// values below it belong to the front band (AtHFront), so a front event
// always precedes same-instant normal events in the (at, seq) order.
const normalBand = uint64(1) << 62

// NewKernel returns a kernel whose clock starts at time zero.
func NewKernel() *Kernel {
	k := &Kernel{seq: normalBand}
	k.tw.nextLB = MaxTime
	k.tw.nextAt = MaxTime
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports how many events are scheduled but not yet dispatched,
// including timers still waiting in the wheel (collected timers are
// already in the heap and counted there).
func (k *Kernel) Pending() int {
	return len(k.pq) + k.laneExtra + len(k.iq) - k.iqHead + k.tw.count
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
	if len(k.pq)+k.laneExtra >= laneGate && k.toLane(t, h, arg) {
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
		k.laneExtra++
	case ln.d == d && ln.last > k.now:
		k.push(t, k.seq, s, nil)
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

// push inserts an entry into the heap and tracks its high-water mark.
func (k *Kernel) push(at Time, seq, arg uint64, h Handler) {
	k.pq.push(at, seq, arg, h)
	if len(k.pq) > k.pqHigh {
		k.pqHigh = len(k.pq)
	}
}

// AtHFront schedules h.Handle(arg) at the absolute instant t ahead of
// every same-instant event the normal At/AtH band has scheduled or will
// schedule. The sharded runtime injects cross-shard deliveries through
// it: in a single-kernel run a cable delivery event is inserted at
// serialization end — at least one propagation delay before it fires —
// so it precedes any same-instant work the destination schedules while
// the beat is still in flight, and the front band reproduces that
// insertion point. Front events keep their own insertion order; unlike
// AtH, a front event at the current instant still goes through the heap
// so it can overtake the immediate ring.
func (k *Kernel) AtHFront(t Time, h Handler, arg uint64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if h == nil {
		panic("sim: scheduling a nil handler")
	}
	k.frontSeq++
	if k.frontSeq >= normalBand {
		panic("sim: front-band seq exhausted")
	}
	k.push(t, k.frontSeq, arg, h)
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

// Stop makes the currently executing Run/RunUntil return after the current
// event completes. Pending events remain queued.
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
	if k.pq[0].h == nil {
		k.stepLane()
		return true
	}
	at, h, arg := k.pq.pop()
	k.now = at
	k.processed++
	h.Handle(arg)
	return true
}

// stepLane dispatches the head of the lane whose entry is the heap root.
// A lane with events left re-keys its entry with its next head, which is
// later than the one dispatched; an emptied lane leaves the heap.
func (k *Kernel) stepLane() {
	slot := k.pq[0].arg
	ln := &k.lanes[slot]
	e := &ln.buf[ln.head]
	at, h, arg := e.at, e.h, e.arg
	e.h = nil // release the handler for GC
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	if ln.n--; ln.n > 0 {
		nx := &ln.buf[ln.head]
		k.pq.siftDown(nx.at, nx.seq, slot, nil)
		k.laneExtra--
	} else {
		k.pq.pop()
		k.lanesBusy--
	}
	k.now = at
	k.processed++
	h.Handle(arg)
}

// NextEventTime returns the timestamp of the earliest pending event,
// including timers still waiting in the wheel (their exact deadlines, not
// slot bounds — the sharded runtime's conservative horizon and AdvanceTo's
// skip check both need the true minimum). ok is false when nothing is
// scheduled. Immediate-ring events sit at the current instant by
// construction.
func (k *Kernel) NextEventTime() (Time, bool) {
	if k.iqHead < len(k.iq) {
		return k.now, true
	}
	next := MaxTime
	found := false
	if len(k.pq) > 0 {
		next = k.pq[0].at
		found = true
	}
	if k.tw.count > 0 {
		if wn := k.tw.next(); !found || wn < next {
			next = wn
			found = true
		}
	}
	return next, found
}

// RunBelow dispatches every event with timestamp strictly before horizon and
// returns the final simulated time. Unlike RunUntil it never advances the
// clock past the last dispatched event, so a conservative-PDES coordinator
// can resume the kernel with a later horizon without losing the frontier.
func (k *Kernel) RunBelow(horizon Time) Time {
	if k.running {
		panic("sim: Kernel.Run called reentrantly")
	}
	if horizon <= 0 {
		return k.now
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for !k.stopped && k.step(horizon-1) {
	}
	return k.now
}

// AdvanceTo moves the clock forward to t without dispatching anything.
// Events scheduled before t must already have been dispatched (RunBelow(t));
// skipping one would corrupt causality, so that panics. Events at exactly t
// stay pending and dispatch when the kernel next runs.
func (k *Kernel) AdvanceTo(t Time) {
	if k.running {
		panic("sim: AdvanceTo during Run")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, k.now))
	}
	if next, ok := k.NextEventTime(); ok && next < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip event at %v", t, next))
	}
	k.now = t
}

// Run dispatches events until the queue drains or Stop is called, and
// returns the final simulated time.
func (k *Kernel) Run() Time { return k.RunUntil(MaxTime) }

// RunUntil dispatches events with timestamps <= limit, advances the clock to
// limit if it was reached with events still pending, and returns the final
// simulated time. Reentrant calls panic.
func (k *Kernel) RunUntil(limit Time) Time {
	if k.running {
		panic("sim: Kernel.Run called reentrantly")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for !k.stopped && k.step(limit) {
	}
	if !k.stopped && limit != MaxTime && k.now < limit {
		k.now = limit
	}
	return k.now
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
