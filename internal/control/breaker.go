// Circuit breaker over the remote-memory datapath. Deadlines turn a hung
// lender into prompt poisoned completions, but every poisoned fill still
// burns a full deadline of latency. The breaker watches the outcome stream
// and, once the windowed error rate crosses the trip ratio, fast-fails
// subsequent accesses to the local fallback (Closed -> Open). After a
// dwell it admits a few trial transactions (Half-Open); sustained success
// re-promotes the remote path (-> Closed), failure re-opens with a longer
// dwell — hysteresis against flapping on a marginal lender.

package control

import (
	"fmt"

	"thymesim/internal/metricsplane"
	"thymesim/internal/sim"
)

// BreakerState is the circuit breaker's state.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed passes traffic and watches the error rate.
	BreakerClosed BreakerState = iota
	// BreakerOpen fast-fails everything until the dwell elapses.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of trial transactions.
	BreakerHalfOpen
)

var breakerStateNames = map[BreakerState]string{
	BreakerClosed:   "closed",
	BreakerOpen:     "open",
	BreakerHalfOpen: "half-open",
}

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	if n, ok := breakerStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("breaker(%d)", int(s))
}

// ValidBreakerTransition reports whether from -> to is a legal breaker
// edge: Closed -> Open, Open -> Half-Open, Half-Open -> Open or Closed.
// The chaos audit checks every logged transition against this.
func ValidBreakerTransition(from, to BreakerState) bool {
	switch from {
	case BreakerClosed:
		return to == BreakerOpen
	case BreakerOpen:
		return to == BreakerHalfOpen
	case BreakerHalfOpen:
		return to == BreakerOpen || to == BreakerClosed
	}
	return false
}

// BreakerConfig parameterizes the circuit breaker.
type BreakerConfig struct {
	// Window is the sliding outcome window size (count-based).
	Window int
	// MinSamples is the minimum outcomes in the window before the error
	// rate is judged at all (avoids tripping on the first failure).
	MinSamples int
	// TripRatio is the windowed error fraction at which Closed trips Open.
	TripRatio float64
	// OpenTimeout is the initial Open dwell before probing Half-Open;
	// each re-trip from Half-Open grows it by OpenMult (>= 1, 0 = no
	// growth) up to OpenCap (0 = uncapped). A successful close resets it.
	OpenTimeout sim.Duration
	OpenMult    float64
	OpenCap     sim.Duration
	// HalfOpenProbes bounds concurrently outstanding trial transactions in
	// Half-Open.
	HalfOpenProbes int
	// CloseAfter is how many consecutive trial successes re-close the
	// breaker; any trial failure re-opens immediately.
	CloseAfter int
}

// Validate checks the configuration. Zero windows and thresholds are
// rejected here — a breaker that silently never trips (or trips on
// nothing) is worse than no breaker.
func (c BreakerConfig) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("control: breaker Window = %d", c.Window)
	}
	if c.MinSamples <= 0 || c.MinSamples > c.Window {
		return fmt.Errorf("control: breaker MinSamples = %d outside [1,%d]", c.MinSamples, c.Window)
	}
	if c.TripRatio <= 0 || c.TripRatio > 1 {
		return fmt.Errorf("control: breaker TripRatio = %g outside (0,1]", c.TripRatio)
	}
	if c.OpenTimeout <= 0 {
		return fmt.Errorf("control: breaker OpenTimeout = %v", c.OpenTimeout)
	}
	if c.OpenMult != 0 && c.OpenMult < 1 {
		return fmt.Errorf("control: breaker OpenMult = %g < 1", c.OpenMult)
	}
	if c.OpenCap < 0 {
		return fmt.Errorf("control: negative breaker OpenCap")
	}
	if c.OpenCap > 0 && c.OpenCap < c.OpenTimeout {
		return fmt.Errorf("control: breaker OpenCap %v below OpenTimeout %v", c.OpenCap, c.OpenTimeout)
	}
	if c.HalfOpenProbes <= 0 {
		return fmt.Errorf("control: breaker HalfOpenProbes = %d", c.HalfOpenProbes)
	}
	if c.CloseAfter <= 0 {
		return fmt.Errorf("control: breaker CloseAfter = %d", c.CloseAfter)
	}
	return nil
}

// DefaultBreakerConfig returns a breaker tuned to the testbed's fill
// rates: trip when half of the last 64 outcomes failed, probe after 200us,
// and back off to 2ms across consecutive re-trips.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		Window:         64,
		MinSamples:     16,
		TripRatio:      0.5,
		OpenTimeout:    200 * sim.Microsecond,
		OpenMult:       2,
		OpenCap:        2 * sim.Millisecond,
		HalfOpenProbes: 4,
		CloseAfter:     8,
	}
}

// BreakerTransition is one logged state change.
type BreakerTransition struct {
	At       sim.Time
	From, To BreakerState
}

// BreakerStats counts breaker activity.
type BreakerStats struct {
	Allowed        uint64 // Allow() = true
	ShortCircuited uint64 // Allow() = false (fast-failed to fallback)
	Successes      uint64 // healthy outcomes recorded
	Failures       uint64 // failed outcomes recorded
	Trips          uint64 // Closed -> Open transitions
	HalfOpens      uint64 // Open -> Half-Open transitions
	Reopens        uint64 // Half-Open -> Open transitions
	Closes         uint64 // Half-Open -> Closed transitions
}

// Transitions returns the state changes counted, of every kind.
func (s BreakerStats) Transitions() uint64 { return s.Trips + s.HalfOpens + s.Reopens + s.Closes }

// Breaker is a count-window circuit breaker. Allow gates each access;
// Record feeds it the outcome stream (wire it to the remote backend's
// outcome observer). Both are allocation-free; only state transitions
// allocate (log entry — the dwell timer lives on the kernel's wheel).
type Breaker struct {
	k   *sim.Kernel
	cfg BreakerConfig

	state BreakerState
	// window is a ring of recent outcomes (true = failure) with a running
	// failure count, so the trip check is O(1) per outcome.
	window   []bool
	head     int
	samples  int
	failures int

	dwell      sim.Duration // next Open dwell (backoff state)
	dwellTimer sim.TimerID  // armed Open→Half-Open transition
	inFlight   int          // outstanding Half-Open trials
	streak     int          // consecutive Half-Open successes

	transitions []BreakerTransition
	stats       BreakerStats

	// OnStateChange, when set, observes every transition.
	OnStateChange func(from, to BreakerState)

	rec metricsplane.NodeRecorder // transitions, for the flight recorder
}

// NewBreaker builds a breaker in the Closed state. Invalid configurations
// are reported, not panicked over, so harness code can surface them.
func NewBreaker(k *sim.Kernel, cfg BreakerConfig) (*Breaker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Breaker{
		k:      k,
		cfg:    cfg,
		window: make([]bool, cfg.Window),
		dwell:  cfg.OpenTimeout,
	}, nil
}

// SetRecorder attaches the metrics plane's flight-recorder handle, which
// logs every transition. Observe-only; composes with OnStateChange rather
// than occupying it. The counters in Stats are pulled by the plane.
func (b *Breaker) SetRecorder(rec metricsplane.NodeRecorder) { b.rec = rec }

// State returns the current breaker state.
func (b *Breaker) State() BreakerState { return b.state }

// Stats returns the activity counters.
func (b *Breaker) Stats() BreakerStats { return b.stats }

// Transitions returns the logged state changes in order.
func (b *Breaker) Transitions() []BreakerTransition { return b.transitions }

// ErrorRate returns the windowed failure fraction (0 with no samples).
func (b *Breaker) ErrorRate() float64 {
	if b.samples == 0 {
		return 0
	}
	return float64(b.failures) / float64(b.samples)
}

// Allow reports whether an access may take the remote path right now.
// Open fast-fails; Half-Open admits a bounded number of trials.
func (b *Breaker) Allow() bool {
	switch b.state {
	case BreakerClosed:
		b.stats.Allowed++
		return true
	case BreakerHalfOpen:
		if b.inFlight < b.cfg.HalfOpenProbes {
			b.inFlight++
			b.stats.Allowed++
			return true
		}
	}
	b.stats.ShortCircuited++
	return false
}

// Record feeds one transaction outcome (ok = healthy completion).
func (b *Breaker) Record(ok bool) {
	if ok {
		b.stats.Successes++
	} else {
		b.stats.Failures++
	}
	switch b.state {
	case BreakerClosed:
		b.push(!ok)
		if b.samples >= b.cfg.MinSamples &&
			float64(b.failures) >= b.cfg.TripRatio*float64(b.samples) {
			b.stats.Trips++
			b.trip()
		}
	case BreakerHalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		if !ok {
			// One failed trial is enough: re-open with a longer dwell.
			b.stats.Reopens++
			if m := b.cfg.OpenMult; m > 1 {
				b.dwell = sim.Duration(float64(b.dwell) * m)
				if b.cfg.OpenCap > 0 && b.dwell > b.cfg.OpenCap {
					b.dwell = b.cfg.OpenCap
				}
			}
			b.trip()
			return
		}
		b.streak++
		if b.streak >= b.cfg.CloseAfter {
			b.stats.Closes++
			b.dwell = b.cfg.OpenTimeout
			b.resetWindow()
			b.transition(BreakerClosed)
		}
	case BreakerOpen:
		// Straggler outcome from before the trip; stats only.
	}
}

// push records one outcome in the ring window.
func (b *Breaker) push(failed bool) {
	if b.samples == len(b.window) {
		if b.window[b.head] {
			b.failures--
		}
	} else {
		b.samples++
	}
	b.window[b.head] = failed
	if failed {
		b.failures++
	}
	b.head++
	if b.head == len(b.window) {
		b.head = 0
	}
}

// resetWindow clears the outcome window (a re-closed breaker starts with a
// clean slate rather than the error burst that tripped it).
func (b *Breaker) resetWindow() {
	for i := range b.window {
		b.window[i] = false
	}
	b.head, b.samples, b.failures = 0, 0, 0
}

// trip opens the breaker and arms the dwell timer toward Half-Open on the
// kernel's timer wheel. Re-tripping (Half-Open failure) cancels any prior
// dwell for real, so a firing timer always belongs to the current Open
// episode.
func (b *Breaker) trip() {
	b.transition(BreakerOpen)
	b.k.CancelTimer(b.dwellTimer)
	b.dwellTimer = b.k.ArmTimer(b.dwell, b, 0)
}

// Handle implements sim.Handler: the Open dwell elapsed; admit trial
// traffic.
func (b *Breaker) Handle(uint64) {
	if b.state != BreakerOpen {
		return
	}
	b.inFlight, b.streak = 0, 0
	b.stats.HalfOpens++
	b.transition(BreakerHalfOpen)
}

func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	if !ValidBreakerTransition(from, to) {
		panic(fmt.Sprintf("control: illegal breaker transition %v -> %v", from, to))
	}
	b.state = to
	b.transitions = append(b.transitions, BreakerTransition{At: b.k.Now(), From: from, To: to})
	b.rec.Record(b.k.Now(), metricsplane.EvBreakerTransition, uint64(from)<<8|uint64(to))
	if b.OnStateChange != nil {
		b.OnStateChange(from, to)
	}
}
