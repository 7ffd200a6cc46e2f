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
		// Sift the tail down from the root, moving the hole instead of
		// swapping. The tail is read and moved field by field, for the
		// same reason push writes it that way.
		lat, lseq := q[n].at, q[n].seq
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
			if lat < q[m].at || (lat == q[m].at && lseq < q[m].seq) {
				break
			}
			q[i] = q[m]
			i = m
		}
		e, last := &q[i], &q[n]
		e.at, e.seq, e.arg, e.h = last.at, last.seq, last.arg, last.h
	}
	q[n] = event{} // release the handler for GC
	*h = q[:n]
	return at, hd, arg
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

// Kernel is a single-threaded discrete-event scheduler: one (at, seq)
// heap, the immediate ring for same-instant events, and a timer wheel
// whose due timers are collected into the heap. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	pq        eventPQ
	iq        []ringEvent
	iqHead    int
	now       Time
	seq       uint64
	frontSeq  uint64
	processed uint64
	running   bool
	stopped   bool
	tw        timerWheel // cancellable timers (ArmTimer/CancelTimer)
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
	return len(k.pq) + len(k.iq) - k.iqHead + k.tw.count
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
func (k *Kernel) AtH(t Time, h Handler, arg uint64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	if t == k.now {
		k.iq = append(k.iq, ringEvent{seq: k.seq, arg: arg, h: h})
		return
	}
	k.pq.push(t, k.seq, arg, h)
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
	k.frontSeq++
	if k.frontSeq >= normalBand {
		panic("sim: front-band seq exhausted")
	}
	k.pq.push(t, k.frontSeq, arg, h)
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

// step dispatches the earliest event across the heap and the immediate
// ring. It reports false when no dispatchable events remain. seq values are
// globally unique, so the (at, seq) order is total and the merge never ties;
// ring entries all sit at the current instant, so the heap top precedes the
// ring head only when it shares that instant with a smaller seq.
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
	at, h, arg := k.pq.pop()
	k.now = at
	k.processed++
	h.Handle(arg)
	return true
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
