// Declarative fault schedules. A chaos campaign is a timed list of fault
// events — crash the lender at t0, restore it at t1, open a burst-error
// window, ramp a brownout — validated up front and replayed against the
// testbed at exact simulated instants. Because the schedule is data, the
// same campaign definition drives the runner, the invariant audit, and the
// CSV artifact describing what was injected when.
package inject

import (
	"fmt"
	"math"
	"sort"

	"thymesim/internal/sim"
)

// FaultOp enumerates the scheduled fault actions.
type FaultOp int

// Scheduled fault actions.
const (
	// OpLenderCrash stops the lender's memory service: in-flight serves
	// are lost and subsequent requests (probes included) are black-holed.
	OpLenderCrash FaultOp = iota
	// OpLenderRestore restarts the lender. With Wipe set, the window state
	// is lost too: block requests are nacked until a control-plane probe
	// re-arms the window (the supervisor's re-attach does exactly that).
	OpLenderRestore
	// OpBrownout sets the lender's memory service-time inflation to
	// Factor (>= 1); Factor 1 ends the brownout. Successive events ramp.
	OpBrownout
	// OpBurstStart pins the link's burst-error chain in its Bad state.
	OpBurstStart
	// OpBurstEnd releases the chain back to its own dynamics.
	OpBurstEnd
)

var faultOpNames = map[FaultOp]string{
	OpLenderCrash:   "lender-crash",
	OpLenderRestore: "lender-restore",
	OpBrownout:      "brownout",
	OpBurstStart:    "burst-start",
	OpBurstEnd:      "burst-end",
}

// String implements fmt.Stringer.
func (op FaultOp) String() string {
	if n, ok := faultOpNames[op]; ok {
		return n
	}
	return fmt.Sprintf("fault-op(%d)", int(op))
}

// FaultEvent is one scheduled fault action.
type FaultEvent struct {
	// At is the simulated instant the action fires.
	At sim.Time
	// Op selects the action.
	Op FaultOp
	// Factor is the brownout service-time inflation (OpBrownout only).
	Factor float64
	// Wipe loses the lender's window state across a restore
	// (OpLenderRestore only).
	Wipe bool
}

// Schedule is a validated, time-ordered fault-event list.
type Schedule []FaultEvent

// Validate checks event parameters and crash/restore pairing. Events need
// not be pre-sorted; ties resolve in list order.
func (s Schedule) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("inject: empty fault schedule")
	}
	crashed := false
	burst := false
	for i, ev := range sortedEvents(s) {
		if ev.At < 0 {
			return fmt.Errorf("inject: schedule event %d at negative time %v", i, ev.At)
		}
		switch ev.Op {
		case OpLenderCrash:
			if crashed {
				return fmt.Errorf("inject: schedule event %d crashes an already-crashed lender", i)
			}
			crashed = true
		case OpLenderRestore:
			if !crashed {
				return fmt.Errorf("inject: schedule event %d restores a lender that is up", i)
			}
			crashed = false
		case OpBrownout:
			if !(ev.Factor >= 1) || math.IsInf(ev.Factor, 1) {
				return fmt.Errorf("inject: schedule event %d brownout factor %g is not a finite value >= 1", i, ev.Factor)
			}
		case OpBurstStart:
			if burst {
				return fmt.Errorf("inject: schedule event %d opens a burst window inside one", i)
			}
			burst = true
		case OpBurstEnd:
			if !burst {
				return fmt.Errorf("inject: schedule event %d ends a burst window that is not open", i)
			}
			burst = false
		default:
			return fmt.Errorf("inject: schedule event %d has unknown op %d", i, int(ev.Op))
		}
	}
	if crashed {
		return fmt.Errorf("inject: schedule crashes the lender without restoring it")
	}
	if burst {
		return fmt.Errorf("inject: schedule opens a burst window without closing it")
	}
	return nil
}

// NeedsBurstGate reports whether the schedule contains burst-error events
// (the runner must then stack a Gilbert–Elliott gate).
func (s Schedule) NeedsBurstGate() bool {
	for _, ev := range s {
		if ev.Op == OpBurstStart || ev.Op == OpBurstEnd {
			return true
		}
	}
	return false
}

// sortedEvents returns the events in firing order without mutating s.
func sortedEvents(s Schedule) Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// FaultTarget is the slice of the testbed a schedule manipulates
// (*cluster.Testbed composed with the campaign's burst gate satisfies it).
type FaultTarget interface {
	// CrashLender stops the lender's memory service.
	CrashLender()
	// RestoreLender restarts it, optionally wiping window state.
	RestoreLender(wipe bool)
	// SetLenderSlowdown sets the lender memory service-time inflation.
	SetLenderSlowdown(factor float64)
	// ForceBurstErrors pins or releases the link's burst-error state.
	ForceBurstErrors(active bool)
}

// ScheduleFaults arms every event of a validated schedule on the kernel.
// Call it before Run; events fire at their exact instants.
func ScheduleFaults(k *sim.Kernel, target FaultTarget, s Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, ev := range sortedEvents(s) {
		ev := ev
		k.At(ev.At, func() {
			switch ev.Op {
			case OpLenderCrash:
				target.CrashLender()
			case OpLenderRestore:
				target.RestoreLender(ev.Wipe)
			case OpBrownout:
				target.SetLenderSlowdown(ev.Factor)
			case OpBurstStart:
				target.ForceBurstErrors(true)
			case OpBurstEnd:
				target.ForceBurstErrors(false)
			}
		})
	}
	return nil
}
