package sim

import (
	"fmt"
	"testing"
)

// rackDelays are the delays a rack-scale pool schedules most (wire flight,
// delay line, switch hop, ARQ and DRAM continuations), in picoseconds. The
// order programs draw most of their delays from them so that the kernel's
// fixed-delay lanes fill up.
var rackDelays = [8]Duration{150000, 100000, 3680, 300000, 13920, 4000, 2000, 90000}

// refEvent is one pending event of the order reference; ids are handed
// out in scheduling order, so (at, id) restates the kernel's (at, seq)
// contract.
type refEvent struct {
	at Time
	id uint64
}

func (e refEvent) before(o refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.id < o.id
}

// orderRun drives a kernel with a byte program and checks it against a
// linear-scan reference: every dispatch must be the reference minimum,
// Pending must agree with the reference after every step, and a StepTo
// boundary must leave nothing pending before it and everything at or after
// it.
type orderRun struct {
	t      testing.TB
	k      *Kernel
	prog   []byte
	pc     int
	ref    []refEvent
	nextID uint64
	depth  int  // population the program keeps pending
	budget int  // events the program may still schedule
	bound  Time // dispatches must precede it (StepTo's t; MaxTime under Run)
	log    []uint64

	timers []timerRef // armed timers, live or cancelled

	// srcs are owner sources; tails[i] is the instant of srcs[i]'s latest
	// append, which its next append may not precede.
	srcs  []Source
	tails []Time
}

// timerRef is an armed timer. A cancelled timer may still sit in the heap
// as a no-op (cancelled after the wheel collected it), so until its
// instant has passed the reference counts it as a possible ghost.
type timerRef struct {
	id        TimerID
	ref       uint64
	at        Time
	cancelled bool
}

// byte returns the next program byte, cycling through the program.
func (r *orderRun) byte() byte {
	if len(r.prog) == 0 {
		return 0
	}
	b := r.prog[r.pc%len(r.prog)]
	r.pc++
	return b
}

// word returns the next two program bytes as a number.
func (r *orderRun) word() int { return int(r.byte())<<8 | int(r.byte()) }

// delay draws a delay: mostly one of rackDelays, sometimes a random one.
func (r *orderRun) delay() Duration {
	if b := r.byte(); b < 200 {
		return rackDelays[b&7]
	}
	return Duration(1 + r.word()*7)
}

func (r *orderRun) Handle(id uint64) { r.fire(id) }

func (r *orderRun) add(at Time) uint64 {
	r.nextID++
	r.ref = append(r.ref, refEvent{at: at, id: r.nextID})
	return r.nextID
}

// op performs one program instruction: a schedule of some kind, or a timer
// cancellation.
func (r *orderRun) op() {
	if r.budget <= 0 {
		return
	}
	k := r.k
	switch b := r.byte(); {
	case b < 100:
		r.budget--
		d := r.delay()
		k.AfterH(d, r, r.add(k.Now().Add(d)))
	case b < 125:
		r.budget--
		at := k.Now().Add(r.delay())
		k.AtH(at, r, r.add(at))
	case b < 145:
		r.budget--
		at := k.Now().Add(r.delay())
		id := r.add(at)
		k.At(at, func() { r.fire(id) })
	case b < 160:
		r.budget--
		id := r.add(k.Now())
		k.Post(func() { r.fire(id) })
	case b < 190:
		// An owner source's append, shaped like a cable's arrivals: a
		// varying delay, but never before the source's latest append,
		// which it lands on or just after as a beat waits for the wire.
		// Sometimes the append is at the current instant.
		r.budget--
		i := int(r.byte()) % len(r.srcs)
		at := k.Now()
		if r.byte() >= 32 {
			at = at.Add(r.delay())
		}
		if at < r.tails[i] {
			at = r.tails[i].Add(Duration(r.byte() % 4))
		}
		r.tails[i] = at
		r.srcs[i].AtH(at, r, r.add(at))
	case b < 225:
		r.budget--
		d := r.delay()
		if r.byte() < 64 {
			d *= 40 // past level 0 of the wheel
		}
		at := k.Now().Add(d)
		id := r.add(at)
		r.timers = append(r.timers, timerRef{id: k.ArmTimer(d, r, id), ref: id, at: at})
	default:
		if len(r.timers) == 0 {
			return
		}
		tr := &r.timers[r.word()%len(r.timers)]
		live := r.find(tr.ref) >= 0
		if got := k.CancelTimer(tr.id); got != live {
			r.t.Fatalf("CancelTimer(event %d) = %v, want %v", tr.ref, got, live)
		}
		if live {
			r.remove(r.find(tr.ref))
			tr.cancelled = true
		}
	}
	r.check()
}

func (r *orderRun) find(id uint64) int {
	for i, e := range r.ref {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (r *orderRun) remove(i int) {
	r.ref[i] = r.ref[len(r.ref)-1]
	r.ref = r.ref[:len(r.ref)-1]
}

func (r *orderRun) min() int {
	best := -1
	for i := range r.ref {
		if best < 0 || r.ref[i].before(r.ref[best]) {
			best = i
		}
	}
	return best
}

// fire is every event's callee: it checks the dispatch against the
// reference, logs it, and runs a few more program instructions — one more
// while fewer than depth events are pending, so the population hovers
// around depth until the budget runs out.
func (r *orderRun) fire(id uint64) {
	i := r.min()
	if i < 0 {
		r.t.Fatalf("dispatched event %d at %v with the reference empty", id, r.k.Now())
	}
	if want := r.ref[i]; want.id != id || want.at != r.k.Now() {
		r.t.Fatalf("dispatch %d: event %d at %v, reference wants event %d at %v",
			len(r.log), id, r.k.Now(), want.id, want.at)
	}
	if r.k.Now() >= r.bound {
		r.t.Fatalf("event %d dispatched at %v inside StepTo(%v)", id, r.k.Now(), r.bound)
	}
	r.remove(i)
	r.log = append(r.log, id)
	r.check()
	n := int(r.byte() % 3)
	if len(r.ref) < r.depth {
		n++
	}
	for ; n > 0; n-- {
		r.op()
	}
}

// check compares Pending with the reference. Cancelled timers whose
// instant has not passed may still be pending as no-ops, so they widen the
// allowed range; with none, Pending must match exactly.
func (r *orderRun) check() {
	now := r.k.Now()
	ghosts := 0
	live := r.timers[:0]
	for _, tr := range r.timers {
		if tr.at < now {
			continue
		}
		live = append(live, tr)
		if tr.cancelled {
			ghosts++
		}
	}
	r.timers = live
	if p := r.k.Pending(); p < len(r.ref) || p > len(r.ref)+ghosts {
		r.t.Fatalf("at %v: Pending() = %d, reference holds %d (+%d cancelled timers)", now, p, len(r.ref), ghosts)
	}
}

// stepTo is the driver's StepTo op: every reference event before to must
// have fired, none at or after it, and the clock must read to.
func (r *orderRun) stepTo(to Time) {
	r.bound = to
	got := r.k.StepTo(to)
	r.bound = MaxTime
	if got != to || r.k.Now() != to {
		r.t.Fatalf("StepTo(%v) = %v, Now() = %v", to, got, r.k.Now())
	}
	if i := r.min(); i >= 0 && r.ref[i].at < to {
		r.t.Fatalf("StepTo(%v) left event %d at %v pending", to, r.ref[i].id, r.ref[i].at)
	}
	r.check()
}

// runOrderProgram seeds the kernel with depth events, lets the program
// grow from their handlers until budget events have been scheduled, and
// drives the kernel in program-chosen StepTo phases, with a driver-side op
// at each boundary, before running it dry. It checks that everything
// scheduled was dispatched.
func runOrderProgram(t testing.TB, prog []byte, depth, budget int) *orderRun {
	r := &orderRun{t: t, k: NewKernel(), prog: prog, depth: depth, budget: budget, bound: MaxTime}
	for i := 0; i < 3; i++ {
		r.srcs = append(r.srcs, r.k.NewSource())
		r.tails = append(r.tails, 0)
	}
	for i := 0; i < depth; i++ {
		d := r.delay()
		r.k.AfterH(d, r, r.add(Time(d)))
		r.check()
	}
	for steps := 0; steps < 64 && len(r.ref) > 0; steps++ {
		// A zero step (byte < 16) re-steps to the current instant, which
		// must dispatch nothing.
		r.stepTo(r.k.Now().Add(Duration(r.byte()/16) * r.delay()))
		r.op()
	}
	r.k.Run()
	if len(r.ref) != 0 {
		t.Fatalf("%d events never dispatched", len(r.ref))
	}
	if r.k.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run", r.k.Pending())
	}
	return r
}

// TestKernelOrderMatchesReference runs random programs mixing repeated and
// random delays, absolute and closure schedules, same-instant posts,
// appends to owner sources and cancellable timers, with handlers
// scheduling more work and the driver stepping the kernel in StepTo
// phases. The shallow variant stays below the lane gate, where every
// future event outside a source takes the heap; the deep one keeps a
// rack-like population pending, so lanes carry most of it.
func TestKernelOrderMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name          string
		depth, budget int
		wantLanes     bool
	}{
		{"shallow", 8, 2000, false},
		{"deep", 160, 4000, true},
	} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := NewRand(seed)
				prog := make([]byte, 4096)
				for i := range prog {
					prog[i] = byte(rng.Uint64())
				}
				r := runOrderProgram(t, prog, tc.depth, tc.budget)
				qs := r.k.QueueStats()
				if qs.ToSources == 0 || qs.SourcesHigh == 0 || qs.Sources != 0 {
					t.Fatalf("sources: %+v, want some events through them and none left", qs)
				}
				if tc.wantLanes && qs.ToLanes <= qs.ToHeap {
					t.Fatalf("deep run: %d events took lanes, %d the heap; want lanes to carry most", qs.ToLanes, qs.ToHeap)
				}
				if !tc.wantLanes && qs.ToLanes != 0 {
					t.Fatalf("shallow run: %d events took lanes below the gate", qs.ToLanes)
				}
			})
		}
	}
}

// FuzzKernelOrder checks arbitrary programs against the reference at both
// depths.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 210, 250, 17, 99, 180, 190, 240})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80})
	f.Add([]byte{236, 0, 0, 221, 5, 9, 160, 195, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runOrderProgram(t, prog, 8, 300)
		runOrderProgram(t, prog, 64, 600)
	})
}
