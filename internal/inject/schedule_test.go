package inject

import (
	"fmt"
	"math"
	"testing"

	"thymesim/internal/sim"
)

// logTarget records each fault action with its firing time.
type logTarget struct {
	k   *sim.Kernel
	log []string
}

func (t *logTarget) CrashLender() { t.log = append(t.log, fmt.Sprintf("crash@%v", t.k.Now())) }
func (t *logTarget) RestoreLender(wipe bool) {
	t.log = append(t.log, fmt.Sprintf("restore(wipe=%t)@%v", wipe, t.k.Now()))
}
func (t *logTarget) SetLenderSlowdown(f float64) {
	t.log = append(t.log, fmt.Sprintf("slowdown(%g)@%v", f, t.k.Now()))
}
func (t *logTarget) ForceBurstErrors(active bool) {
	t.log = append(t.log, fmt.Sprintf("burst(%t)@%v", active, t.k.Now()))
}

func TestScheduleValidate(t *testing.T) {
	us := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	cases := []struct {
		name string
		s    Schedule
		ok   bool
	}{
		{"empty", Schedule{}, false},
		{"negative time", Schedule{{At: -1, Op: OpLenderCrash}, {At: us(1), Op: OpLenderRestore}}, false},
		{"restore without crash", Schedule{{At: us(1), Op: OpLenderRestore}}, false},
		{"crash without restore", Schedule{{At: us(1), Op: OpLenderCrash}}, false},
		{"double crash", Schedule{
			{At: us(1), Op: OpLenderCrash}, {At: us(2), Op: OpLenderCrash},
			{At: us(3), Op: OpLenderRestore}}, false},
		{"burst end without start", Schedule{{At: us(1), Op: OpBurstEnd}}, false},
		{"burst start unclosed", Schedule{{At: us(1), Op: OpBurstStart}}, false},
		{"brownout factor below one", Schedule{{At: us(1), Op: OpBrownout, Factor: 0.5}}, false},
		{"brownout factor NaN", Schedule{{At: us(1), Op: OpBrownout, Factor: math.NaN()}}, false},
		{"brownout factor +Inf", Schedule{{At: us(1), Op: OpBrownout, Factor: math.Inf(1)}}, false},
		{"paired crash", Schedule{
			{At: us(1), Op: OpLenderCrash},
			{At: us(2), Op: OpLenderRestore, Wipe: true}}, true},
		{"full campaign", Schedule{
			{At: us(1), Op: OpLenderCrash},
			{At: us(2), Op: OpLenderRestore},
			{At: us(3), Op: OpBurstStart},
			{At: us(4), Op: OpBurstEnd},
			{At: us(5), Op: OpBrownout, Factor: 4},
			{At: us(6), Op: OpBrownout, Factor: 1}}, true},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestScheduleNeedsBurstGate(t *testing.T) {
	plain := Schedule{{At: 0, Op: OpLenderCrash}, {At: 1, Op: OpLenderRestore}}
	if plain.NeedsBurstGate() {
		t.Error("crash-only schedule claims a burst gate")
	}
	bursty := Schedule{{At: 0, Op: OpBurstStart}, {At: 1, Op: OpBurstEnd}}
	if !bursty.NeedsBurstGate() {
		t.Error("burst schedule denies needing a gate")
	}
}

// TestScheduleFaultsFiresInOrder arms a deliberately out-of-order event
// list and checks each action fires against the target at its scheduled
// instant, in time order.
func TestScheduleFaultsFiresInOrder(t *testing.T) {
	k := sim.NewKernel()
	tgt := &logTarget{k: k}
	us := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	s := Schedule{
		{At: us(5), Op: OpBrownout, Factor: 4},
		{At: us(1), Op: OpLenderCrash},
		{At: us(7), Op: OpBrownout, Factor: 1},
		{At: us(3), Op: OpLenderRestore, Wipe: true},
		{At: us(4), Op: OpBurstStart},
		{At: us(6), Op: OpBurstEnd},
	}
	if err := ScheduleFaults(k, tgt, s); err != nil {
		t.Fatal(err)
	}
	k.Run()
	want := []string{
		"crash@1us",
		"restore(wipe=true)@3us",
		"burst(true)@4us",
		"slowdown(4)@5us",
		"burst(false)@6us",
		"slowdown(1)@7us",
	}
	if len(tgt.log) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(tgt.log), len(want), tgt.log)
	}
	for i := range want {
		if tgt.log[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, tgt.log[i], want[i])
		}
	}
}

// TestScheduleFaultsRejectsInvalid pins that arming validates first.
func TestScheduleFaultsRejectsInvalid(t *testing.T) {
	k := sim.NewKernel()
	tgt := &logTarget{k: k}
	if err := ScheduleFaults(k, tgt, Schedule{{At: 0, Op: OpLenderCrash}}); err == nil {
		t.Fatal("unpaired crash armed without error")
	}
	k.Run()
	if len(tgt.log) != 0 {
		t.Fatalf("invalid schedule still fired: %v", tgt.log)
	}
}

// replayTarget checks each action against the fault state it is applied
// to: the lender crashes only while up and restores only while down, a
// burst window opens only while closed and closes only while open, and a
// brownout factor is finite and at least 1.
type replayTarget struct {
	t            *testing.T
	k            *sim.Kernel
	down, burst  bool
	fired        int
	last         sim.Time
	crashes, ups int
}

func (r *replayTarget) step(what string) {
	r.t.Helper()
	if now := r.k.Now(); now < r.last {
		r.t.Fatalf("%s at %v after an action at %v", what, now, r.last)
	}
	r.last = r.k.Now()
	r.fired++
}

func (r *replayTarget) CrashLender() {
	r.step("crash")
	if r.down {
		r.t.Fatalf("crash at %v of a crashed lender", r.k.Now())
	}
	r.down = true
	r.crashes++
}

func (r *replayTarget) RestoreLender(bool) {
	r.step("restore")
	if !r.down {
		r.t.Fatalf("restore at %v of a lender that is up", r.k.Now())
	}
	r.down = false
	r.ups++
}

func (r *replayTarget) SetLenderSlowdown(f float64) {
	r.step("brownout")
	if !(f >= 1) || math.IsInf(f, 1) {
		r.t.Fatalf("brownout factor %g at %v", f, r.k.Now())
	}
}

func (r *replayTarget) ForceBurstErrors(active bool) {
	r.step("burst")
	if active == r.burst {
		r.t.Fatalf("burst(%t) at %v with the window already in that state", active, r.k.Now())
	}
	r.burst = active
}

// FuzzScheduleValidate decodes arbitrary bytes into a fault schedule,
// four bytes per event: a signed 16-bit time in microseconds, an op byte
// (covering both ends of the valid range and beyond) and a factor byte
// (NaN and +Inf included). Validate must never panic, and a schedule it
// accepts must replay through ScheduleFaults with crash and restore
// alternating, burst windows balanced, every event fired in time order,
// and the lender up at the end.
func FuzzScheduleValidate(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 2, 2, 1})                         // crash, restore with wipe
	f.Add([]byte{0, 1, 4, 0, 0, 2, 5, 0})                         // burst window
	f.Add([]byte{0, 1, 3, 64, 0, 2, 3, 16})                       // brownout ramp to 1
	f.Add([]byte{0, 1, 3, 255})                                   // NaN factor
	f.Add([]byte{0, 1, 3, 254})                                   // +Inf factor
	f.Add([]byte{255, 255, 1, 0, 0, 1, 2, 0})                     // negative time
	f.Add([]byte{0, 5, 2, 0, 0, 5, 1, 0})                         // tie: restore listed first
	f.Add([]byte{0, 1, 1, 0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 2, 0}) // double crash
	f.Add([]byte{0, 1, 0, 0, 0, 1, 6, 0})                         // unknown ops
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*256 {
			t.Skip("bounded schedules keep the replay small")
		}
		var s Schedule
		for ; len(data) >= 4; data = data[4:] {
			ev := FaultEvent{
				At:     sim.Time(int16(uint16(data[0])<<8|uint16(data[1]))) * sim.Time(sim.Microsecond),
				Op:     FaultOp(int(data[2]%8) - 1),
				Factor: float64(data[3]) / 16,
				Wipe:   data[3]&1 == 1,
			}
			switch data[3] {
			case 255:
				ev.Factor = math.NaN()
			case 254:
				ev.Factor = math.Inf(1)
			}
			s = append(s, ev)
		}
		err := s.Validate()
		k := sim.NewKernel()
		r := &replayTarget{t: t, k: k}
		if armErr := ScheduleFaults(k, r, s); (armErr == nil) != (err == nil) {
			t.Fatalf("Validate = %v but ScheduleFaults = %v", err, armErr)
		}
		if err != nil {
			return
		}
		k.Run()
		if r.fired != len(s) {
			t.Fatalf("fired %d of %d events", r.fired, len(s))
		}
		if r.down || r.burst || r.crashes != r.ups {
			t.Fatalf("replay ended with lender down %t, burst open %t, %d crashes / %d restores",
				r.down, r.burst, r.crashes, r.ups)
		}
	})
}
