package sim

import (
	"fmt"
	"math/bits"
)

// This file implements the kernel's hierarchical timer wheel: O(1) arm and
// true O(1) cancel for the simulator's cancellable-timer population (ARQ
// retransmission timeouts, fill deadlines, supervisor heartbeats, breaker
// dwells, tickers). Before the wheel, cancellation was lazy — a cancelled
// timer stayed in the 4-ary heap, was sifted past by every live event, and
// eventually fired as a generation-guarded no-op. At rack scale the dead
// timers dominate heap traffic: every successful remote fill leaves behind
// an ARQ timeout and a fill deadline that outlive it by orders of magnitude.
//
// Layout: wheelLevels levels of wheelSlots slots each. A level-l slot spans
// 64^l ticks of wheelTickPs picoseconds, so the wheel covers 64^4 ticks
// (~16.8 simulated seconds at the 1µs tick) before falling back to the
// heap. Each slot is an intrusive doubly-linked list of timerCells drawn
// from a pointer-stable free list, and a per-level occupancy bitmap makes
// empty-slot skipping a RotateLeft64+TrailingZeros64.
//
// Determinism contract: ArmTimer consumes one seq from the kernel's
// counter at arm time, exactly as AfterH would. When a timer becomes due its
// cell is moved into the heap carrying that original (at, seq) key,
// so the dispatch order of live timers is byte-identical to the pre-wheel
// schedule — the wheel only changes *where* a timer waits, never *when* it
// fires. Cancelled timers simply never fire (they were no-ops before).

const (
	wheelLevels   = 4
	wheelSlotBits = 6
	wheelSlots    = 1 << wheelSlotBits // 64 slots per level
	wheelSlotMask = wheelSlots - 1

	// wheelTickPs is the level-0 granularity. Timers are collected into the
	// heap with their exact deadline preserved, so the tick size
	// only bounds how early a cell may enter the heap, not firing accuracy.
	wheelTickPs = int64(Microsecond)
)

// timerCell states carried in level: >= 0 means linked into that wheel
// level, the negatives mean free-listed or already handed to the heap.
const (
	cellFree    int8 = -1
	cellPending int8 = -2 // in pq/iq (collected, or heap-fallback arm)
)

// A timerCell is one armed (or pooled) timer. Cells live in batches that
// are never freed, so cell pointers are stable for the kernel's lifetime
// and a TimerID can carry one safely; gen disambiguates reuse. The cell
// itself is the Handler pushed into the event heap at collection time —
// Handle receives the generation captured at arm and drops the dispatch if
// the timer was cancelled (or the cell recycled) in between.
type timerCell struct {
	at   Time
	seq  uint64
	arg  uint64
	gen  uint64
	h    Handler
	w    *timerWheel
	prev *timerCell
	next *timerCell
	lvl  int8
	slot int16
}

// Handle dispatches the armed callback if the cell still belongs to the
// generation that was collected; a cancelled or recycled cell no-ops, which
// is the only lazy path left (cancel between collection and dispatch).
func (c *timerCell) Handle(gen uint64) {
	if c.gen != gen {
		return
	}
	h, arg := c.h, c.arg
	c.w.fired++
	c.w.release(c)
	h.Handle(arg)
}

// A TimerID names one arming of one timer. The zero value is no timer;
// cancelling it is a no-op. IDs stay safe after the timer fires or is
// cancelled — the generation check makes a stale cancel a cheap no-op —
// but they are only meaningful on the kernel that issued them.
type TimerID struct {
	c   *timerCell
	gen uint64
}

// Active reports whether the id still names a pending timer (armed and
// neither fired nor cancelled).
func (id TimerID) Active() bool { return id.c != nil && id.c.gen == id.gen }

// TimerStats counts wheel activity since kernel creation.
type TimerStats struct {
	Armed     uint64 // ArmTimer calls
	Cancelled uint64 // CancelTimer calls that found a live timer
	Fired     uint64 // timers whose handler actually ran
	Fallback  uint64 // arms routed to the heap (beyond wheel span)
	Pending   int    // timers currently armed (wheel slots + collected)
}

type timerWheel struct {
	slots [wheelLevels][wheelSlots]*timerCell
	occ   [wheelLevels]uint64 // bit s set ⇔ slots[l][s] non-empty

	// cur is the collection cursor in ticks: every armed cell has
	// tick(at) >= cur, and cur never runs ahead of the earliest armed
	// cell's tick, so a fresh arm never lands behind the cursor.
	cur int64

	// count is the number of cells linked into slots (collected cells are
	// accounted by the heap they moved to). pendingHeap counts
	// collected-or-fallback cells whose dispatch is still outstanding.
	count       int
	pendingHeap int

	// nextLB is a lower bound on the earliest armed cell's deadline
	// (MaxTime when no cells are linked). It may be stale-low after a
	// cancellation; collection refreshes it.
	nextLB Time

	free *timerCell

	armed, cancelled, fired, fallback uint64
}

func wheelTick(t Time) int64 { return int64(t) / wheelTickPs }

// alloc returns a free cell, minting a batch when the free list is empty.
// Batches are single allocations; a warmed kernel never allocates here.
func (w *timerWheel) alloc() *timerCell {
	if w.free == nil {
		batch := make([]timerCell, 64)
		for i := range batch {
			batch[i].w = w
			batch[i].lvl = cellFree
			batch[i].next = w.free
			w.free = &batch[i]
		}
	}
	c := w.free
	w.free = c.next
	c.next = nil
	return c
}

// release recycles a cell: the generation bump orphans every outstanding
// TimerID and heap entry that still points at it.
func (w *timerWheel) release(c *timerCell) {
	if c.lvl == cellPending {
		w.pendingHeap--
	}
	c.gen++
	c.h = nil
	c.prev = nil
	c.lvl = cellFree
	c.next = w.free
	w.free = c
}

// insert links an armed cell into the innermost level whose current window
// reaches its deadline. It reports false when the deadline lies beyond the
// top level's window (heap fallback). Cells with tick(at) >= cur always
// find a level or overflow the span; tick(at) < cur cannot happen (cur
// trails the earliest armed cell and arms are never in the past).
func (w *timerWheel) insert(c *timerCell) bool {
	tick := wheelTick(c.at)
	if tick < w.cur {
		// Defensive: a behind-cursor cell would link into a slot the
		// collection sweep already passed. The heap fallback is always
		// correct, just slower.
		return false
	}
	for l := 0; l < wheelLevels; l++ {
		sh := uint(wheelSlotBits * l)
		if (tick>>sh)-(w.cur>>sh) >= wheelSlots {
			continue
		}
		slot := int((tick >> sh) & wheelSlotMask)
		c.lvl = int8(l)
		c.slot = int16(slot)
		c.prev = nil
		c.next = w.slots[l][slot]
		if c.next != nil {
			c.next.prev = c
		}
		w.slots[l][slot] = c
		w.occ[l] |= 1 << uint(slot)
		w.count++
		if start := Time((tick >> sh << sh) * wheelTickPs); start < w.nextLB {
			w.nextLB = start
		}
		return true
	}
	return false
}

// unlink removes a slot-resident cell from its list, clearing the occupancy
// bit when the slot empties.
func (w *timerWheel) unlink(c *timerCell) {
	if c.next != nil {
		c.next.prev = c.prev
	}
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		w.slots[c.lvl][c.slot] = c.next
		if c.next == nil {
			w.occ[c.lvl] &^= 1 << uint(c.slot)
		}
	}
	c.prev, c.next = nil, nil
	w.count--
}

// nextOccupied returns the earliest occupied slot's start tick and level.
// It must not be called on an empty wheel. Every occupied slot at level l
// sits within 64 level-l slots at or after cur's, so rotating the bitmap
// by cur's slot index turns "next occupied at-or-after" into a trailing-
// zeros count.
func (w *timerWheel) nextOccupied() (int64, int) {
	best := int64(1<<63 - 1)
	bl := -1
	for l := 0; l < wheelLevels; l++ {
		if w.occ[l] == 0 {
			continue
		}
		sh := uint(wheelSlotBits * l)
		curSlot := w.cur >> sh
		off := bits.TrailingZeros64(bits.RotateLeft64(w.occ[l], -int(curSlot&wheelSlotMask)))
		start := (curSlot + int64(off)) << sh
		if start < best {
			best, bl = start, l
		}
	}
	if bl < 0 {
		panic("sim: nextOccupied on empty wheel")
	}
	return best, bl
}

// collectEarliest advances the cursor to the earliest occupied slot if its
// window begins at or before bound, cascading an outer-level slot into the
// levels below or moving a level-0 slot's cells into the heap with
// their original (at, seq) keys. When the earliest slot begins after bound
// it only refreshes the (possibly stale-low) nextLB.
func (w *timerWheel) collectEarliest(k *Kernel, bound Time) {
	t0, l := w.nextOccupied()
	sh := uint(wheelSlotBits * l)
	start := Time(t0 * wheelTickPs)
	if start > bound {
		w.nextLB = start
		return
	}
	w.cur = t0
	slot := int((t0 >> sh) & wheelSlotMask)
	head := w.slots[l][slot]
	w.slots[l][slot] = nil
	w.occ[l] &^= 1 << uint(slot)
	if l == 0 {
		for c := head; c != nil; {
			nx := c.next
			c.prev, c.next = nil, nil
			c.lvl = cellPending
			w.count--
			w.pendingHeap++
			k.push(c.at, c.seq, c.gen, c)
			c = nx
		}
	} else {
		for c := head; c != nil; {
			nx := c.next
			c.prev, c.next = nil, nil
			w.count--
			if !w.insert(c) {
				panic("sim: timer cascade out of wheel range")
			}
			c = nx
		}
	}
	if w.count == 0 {
		w.nextLB = MaxTime
		return
	}
	t0, _ = w.nextOccupied()
	w.nextLB = Time(t0 * wheelTickPs)
}

// ArmTimer schedules h.Handle(arg) at d after the current instant and
// returns an id for CancelTimer. It is the cancellable analog of AfterH
// and draws from the same seq counter, so a wheel timer fires in exactly
// the (time, seq) position the equivalent AfterH event would — arming and
// cancelling are O(1) and allocation-free on a warmed kernel. Negative d
// panics; a nil handler panics at arm rather than at fire.
func (k *Kernel) ArmTimer(d Duration, h Handler, arg uint64) TimerID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if h == nil {
		panic("sim: ArmTimer with nil handler")
	}
	w := &k.tw
	if w.count == 0 {
		// Empty wheel: the cursor is free to jump to the present, keeping
		// the full span ahead of now regardless of how far the last
		// collection left it behind.
		w.cur = wheelTick(k.now)
	}
	at := k.now.Add(d)
	k.seq++
	c := w.alloc()
	c.at = at
	c.seq = k.seq
	c.arg = arg
	c.h = h
	w.armed++
	if !w.insert(c) {
		// Beyond the top level's window: fall back to the heap. The cell
		// still rides along as the Handler so the timer stays cancellable
		// (lazily — the heap entry fires as a generation-checked no-op).
		w.fallback++
		c.lvl = cellPending
		w.pendingHeap++
		if at == k.now {
			k.iq = append(k.iq, ringEvent{seq: c.seq, arg: c.gen, h: c})
		} else {
			k.push(at, c.seq, c.gen, c)
		}
	}
	return TimerID{c: c, gen: c.gen}
}

// CancelTimer cancels a pending timer in O(1) and reports whether it was
// still pending. Cancelling the zero TimerID, a fired timer, or an already
// cancelled timer is a safe no-op — the generation check rejects stale ids
// even after the underlying cell has been recycled by a later arm.
func (k *Kernel) CancelTimer(id TimerID) bool {
	c := id.c
	if c == nil || c.gen != id.gen {
		return false
	}
	w := &k.tw
	if c.w != w {
		panic("sim: CancelTimer on a foreign kernel's timer")
	}
	if c.lvl >= 0 {
		w.unlink(c)
	}
	// Collected or fallback cells stay in the heap/ring and fire as
	// generation-checked no-ops; the release below orphans them.
	w.cancelled++
	w.release(c)
	return true
}

// TimerStats returns wheel activity counters.
func (k *Kernel) TimerStats() TimerStats {
	w := &k.tw
	return TimerStats{
		Armed:     w.armed,
		Cancelled: w.cancelled,
		Fired:     w.fired,
		Fallback:  w.fallback,
		Pending:   w.count + w.pendingHeap,
	}
}

// collectTimers moves every armed wheel timer that could precede the next
// dispatch candidate into the heap, so step's merge of the heap top and
// the ring head sees it. The cursor only ever advances to slots that are genuinely due, which
// keeps it at or behind tick(now) at every dispatch and makes heap
// fallback on arm impossible within the wheel's span.
func (k *Kernel) collectTimers(limit Time) {
	w := &k.tw
	for w.count > 0 {
		c := limit
		if k.iqHead < len(k.iq) && k.now < c {
			c = k.now
		}
		if len(k.pq) > 0 && k.pq[0].at < c {
			c = k.pq[0].at
		}
		if w.nextLB > c {
			return
		}
		w.collectEarliest(k, c)
	}
}
