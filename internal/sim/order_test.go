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

// refEvent is one pending event of the order reference. band 0 is the
// AtHFront band and precedes band 1 at equal instants; ord is the
// insertion order within a band. (at, band, ord) restates the kernel's
// (at, seq) contract without its seq arithmetic.
type refEvent struct {
	at   Time
	band int
	ord  uint64
	id   uint64
}

func (e refEvent) before(o refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.band != o.band {
		return e.band < o.band
	}
	return e.ord < o.ord
}

// orderRun drives a kernel with a byte program and checks it against a
// linear-scan reference: every dispatch must be the reference minimum, and
// Pending/NextEventTime must agree with the reference after every step.
type orderRun struct {
	t      testing.TB
	k      *Kernel
	prog   []byte
	pc     int
	ref    []refEvent
	ords   [2]uint64
	nextID uint64
	depth  int // population the program keeps pending
	budget int // events the program may still schedule
	log    []uint64

	timers []timerRef // armed timers, live or cancelled
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

func (r *orderRun) add(at Time, band int) uint64 {
	r.nextID++
	r.ords[band]++
	r.ref = append(r.ref, refEvent{at: at, band: band, ord: r.ords[band], id: r.nextID})
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
	case b < 120:
		r.budget--
		d := r.delay()
		k.AfterH(d, r, r.add(k.Now().Add(d), 1))
	case b < 150:
		r.budget--
		at := k.Now().Add(r.delay())
		k.AtH(at, r, r.add(at, 1))
	case b < 170:
		r.budget--
		at := k.Now().Add(r.delay())
		id := r.add(at, 1)
		k.At(at, func() { r.fire(id) })
	case b < 190:
		r.budget--
		id := r.add(k.Now(), 1)
		k.Post(func() { r.fire(id) })
	case b < 205:
		r.budget--
		at := k.Now().Add(Duration(r.byte()&3) * r.delay())
		k.AtHFront(at, r, r.add(at, 0))
	case b < 235:
		r.budget--
		d := r.delay()
		if r.byte() < 64 {
			d *= 40 // past level 0 of the wheel
		}
		at := k.Now().Add(d)
		id := r.add(at, 1)
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

// check compares Pending and NextEventTime with the reference. Cancelled
// timers whose instant has not passed may still be pending as no-ops, so
// they widen the allowed range; with none, both must match exactly.
func (r *orderRun) check() {
	now := r.k.Now()
	ghosts, ghostMin := 0, MaxTime
	live := r.timers[:0]
	for _, tr := range r.timers {
		if tr.at < now {
			continue
		}
		live = append(live, tr)
		if tr.cancelled {
			ghosts++
			ghostMin = min(ghostMin, tr.at)
		}
	}
	r.timers = live
	if p := r.k.Pending(); p < len(r.ref) || p > len(r.ref)+ghosts {
		r.t.Fatalf("at %v: Pending() = %d, reference holds %d (+%d cancelled timers)", now, p, len(r.ref), ghosts)
	}
	want, wantOK := MaxTime, false
	if i := r.min(); i >= 0 {
		want, wantOK = r.ref[i].at, true
	}
	got, ok := r.k.NextEventTime()
	if ghosts == 0 {
		if ok != wantOK || (ok && got != want) {
			r.t.Fatalf("at %v: NextEventTime() = %v,%v, reference %v,%v", now, got, ok, want, wantOK)
		}
		return
	}
	if ok && (got > want || got < min(want, ghostMin)) || !ok && wantOK {
		r.t.Fatalf("at %v: NextEventTime() = %v,%v, reference %v (cancelled timers from %v)", now, got, ok, want, ghostMin)
	}
}

// runOrderProgram seeds the kernel with depth events, lets the program
// grow from their handlers until budget events have been scheduled, runs
// the kernel dry and checks that everything scheduled was dispatched.
func runOrderProgram(t testing.TB, prog []byte, depth, budget int) *orderRun {
	r := &orderRun{t: t, k: NewKernel(), prog: prog, depth: depth, budget: budget}
	for i := 0; i < depth; i++ {
		d := r.delay()
		r.k.AfterH(d, r, r.add(Time(d), 1))
		r.check()
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
// random delays, absolute and closure schedules, same-instant posts, front
// events and cancellable timers, with handlers scheduling more work. The
// shallow variant stays below the lane gate, where every future event
// takes the heap; the deep one keeps a rack-like population pending, so
// lanes carry most of it.
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

// laneKernel returns a kernel at now = n with a deep heap of far-future
// fillers, one event at d in the heap (its delay only tagged the lane
// slot) and n more of delay d, at d+1 … d+n, waiting in the lane.
func laneKernel(t *testing.T, d Duration, n int) (*Kernel, *[]Time) {
	k := NewKernel()
	var fired []Time
	p := &timeProbe{k: k, fired: &fired}
	for i := 0; i < 2*laneGate; i++ {
		k.AtH(Time(Second)+Time(i), p, 0)
	}
	k.AfterH(d, p, 0)
	for i := 1; i <= n; i++ {
		k.AdvanceTo(Time(i))
		k.AfterH(d, p, 0)
	}
	if qs := k.QueueStats(); qs.Lanes != 1 || qs.ToLanes != uint64(n) {
		t.Fatalf("setup: %+v, want %d lane-held events", qs, n)
	}
	return k, &fired
}

// timeProbe records the instant of every dispatch.
type timeProbe struct {
	k     *Kernel
	fired *[]Time
}

func (p *timeProbe) Handle(uint64) { *p.fired = append(*p.fired, p.k.Now()) }

// TestAdvanceToSeesLaneHeldEvents pins the conservative-PDES skip check:
// an event waiting in a lane is as pending as one in the heap.
func TestAdvanceToSeesLaneHeldEvents(t *testing.T) {
	const d = 4 * Nanosecond
	k, fired := laneKernel(t, d, 1)
	k.RunUntil(Time(d))
	if len(*fired) != 1 {
		t.Fatalf("RunUntil(%v) dispatched at %v", d, *fired)
	}
	// Only the lane-held event at d+1 precedes the fillers now.
	if next, ok := k.NextEventTime(); !ok || next != Time(d)+1 {
		t.Fatalf("NextEventTime() = %v,%v, want %v", next, ok, Time(d)+1)
	}
	if got, want := k.Pending(), 2*laneGate+1; got != want {
		t.Fatalf("Pending() = %d, want %d", got, want)
	}
	k.AdvanceTo(Time(d) + 1) // up to the lane-held event is fine
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo past a lane-held event did not panic")
		}
	}()
	k.AdvanceTo(Time(d) + 2)
}

// TestRunBelowResumesLanes pins the sharded runtime's round protocol on
// lane-held events: RunBelow(h) stops before h with lane events pending,
// and the next round dispatches them in order.
func TestRunBelowResumesLanes(t *testing.T) {
	const d = 4 * Nanosecond
	k, fired := laneKernel(t, d, 9)
	h := Time(d) + 5
	if got := k.RunBelow(h); got != h-1 {
		t.Fatalf("RunBelow(%v) stopped at %v, want %v", h, got, h-1)
	}
	if next, ok := k.NextEventTime(); !ok || next != h {
		t.Fatalf("NextEventTime() after RunBelow = %v,%v, want %v", next, ok, h)
	}
	if got, want := k.Pending(), 2*laneGate+5; got != want {
		t.Fatalf("Pending() = %d, want %d", got, want)
	}
	k.RunBelow(Time(Second))
	var want []Time
	for i := 0; i <= 9; i++ {
		want = append(want, Time(d)+Time(i))
	}
	if fmt.Sprint(*fired) != fmt.Sprint(want) {
		t.Fatalf("dispatched at %v, want %v", *fired, want)
	}
	if qs := k.QueueStats(); qs.Lanes != 0 || qs.LanesHigh != 1 || qs.ToLanes != 9 {
		t.Fatalf("QueueStats() = %+v", qs)
	}
}
