package tfnic

import (
	"testing"

	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// fakeLink records sends and lets tests control space and responses.
type fakeLink struct {
	sent    []ocapi.Packet
	space   int
	onSpace []func()
}

func (f *fakeLink) TrySend(p ocapi.Packet) bool {
	if f.space == 0 {
		return false
	}
	f.space--
	f.sent = append(f.sent, p)
	return true
}

func (f *fakeLink) OnCmdSpace(fn func()) { f.onSpace = append(f.onSpace, fn) }
func (f *fakeLink) CmdSpace() int        { return f.space }

func (f *fakeLink) free(n int) {
	f.space += n
	for _, fn := range f.onSpace {
		fn()
	}
}

func arqConfig() ARQConfig {
	return ARQConfig{
		Timeout:     10 * sim.Microsecond,
		MaxRetries:  2,
		BackoffMult: 2,
		BackoffCap:  100 * sim.Microsecond,
		Seed:        1,
	}
}

func readReq(tag uint32) ocapi.Packet {
	return ocapi.Packet{
		Op: ocapi.OpReadBlock, Tag: tag, Addr: uint64(tag) * ocapi.CacheLineSize,
		Size: ocapi.CacheLineSize, Src: 0, Dst: 1,
	}
}

func TestARQCompletesOnResponse(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 8}
	a := NewARQ(k, link, arqConfig())
	var got []ocapi.Packet
	a.OnComplete = func(p ocapi.Packet) { got = append(got, p) }

	if !a.TrySend(readReq(1)) {
		t.Fatal("send refused")
	}
	resp := link.sent[0].Response()
	k.After(sim.Microsecond, func() { a.OnResponse(resp) })
	k.Run()

	if len(got) != 1 || got[0].Op != ocapi.OpReadResp || got[0].Poison {
		t.Fatalf("completions = %+v", got)
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
	s := a.Stats()
	if s.Tracked != 1 || s.Completed != 1 || s.Retransmits != 0 || s.Dead != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestARQRetransmitsOnTimeout(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 8}
	a := NewARQ(k, link, arqConfig())
	var got []ocapi.Packet
	a.OnComplete = func(p ocapi.Packet) { got = append(got, p) }

	a.TrySend(readReq(1))
	// Answer only the second attempt (Seq 1).
	k.Ticker(sim.Microsecond, func() bool {
		for _, p := range link.sent {
			if p.Seq == 1 {
				a.OnResponse(p.Response())
				return false
			}
		}
		return true
	})
	k.Run()

	if len(got) != 1 || got[0].Poison {
		t.Fatalf("completions = %+v", got)
	}
	s := a.Stats()
	if s.Retransmits != 1 || s.Timeouts != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
}

func TestARQDeadAfterRetryExhaustion(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 64}
	a := NewARQ(k, link, arqConfig())
	var got []ocapi.Packet
	a.OnComplete = func(p ocapi.Packet) { got = append(got, p) }

	a.TrySend(readReq(7)) // never answered
	k.Run()

	if len(got) != 1 {
		t.Fatalf("completions = %d, want 1 poisoned", len(got))
	}
	if !got[0].Poison || got[0].Op != ocapi.OpReadResp || got[0].Tag != 7 {
		t.Fatalf("dead completion = %+v", got[0])
	}
	s := a.Stats()
	if s.Dead != 1 || s.Retransmits != uint64(arqConfig().MaxRetries) {
		t.Fatalf("stats = %+v", s)
	}
	if len(link.sent) != 1+arqConfig().MaxRetries {
		t.Fatalf("attempts = %d", len(link.sent))
	}
	// Attempt sequence numbers are 0,1,2.
	for i, p := range link.sent {
		if p.Seq != uint16(i) {
			t.Fatalf("attempt %d seq = %d", i, p.Seq)
		}
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
}

func TestARQBackoffGrowsBetweenAttempts(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 64}
	a := NewARQ(k, link, arqConfig()) // no jitter: deterministic deadlines
	a.OnComplete = func(ocapi.Packet) {}

	var sendTimes []sim.Time
	k.At(0, func() { a.TrySend(readReq(1)) })
	k.Run()
	_ = sendTimes

	// Attempts at 0, ~10us, ~10+20us (timeout then doubled timeout).
	if len(link.sent) != 3 {
		t.Fatalf("attempts = %d", len(link.sent))
	}
	if now := k.Now(); now < sim.Time(70*sim.Microsecond) || now > sim.Time(71*sim.Microsecond) {
		// 10 + 20 + 40 us of deadlines drain the kernel at 70us.
		t.Fatalf("final time %v, want ~70us (10+20+40)", now)
	}
}

func TestARQNackTriggersImmediateRetry(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 8}
	a := NewARQ(k, link, arqConfig())
	var got []ocapi.Packet
	a.OnComplete = func(p ocapi.Packet) { got = append(got, p) }

	a.TrySend(readReq(3))
	k.After(sim.Microsecond, func() {
		a.OnResponse(link.sent[0].Nack())
	})
	k.After(2*sim.Microsecond, func() {
		// The retry (Seq 1) went out well before the 10us timeout.
		if len(link.sent) != 2 || link.sent[1].Seq != 1 {
			t.Fatalf("sent = %+v", link.sent)
		}
		a.OnResponse(link.sent[1].Response())
	})
	k.Run()

	if len(got) != 1 || got[0].Poison {
		t.Fatalf("completions = %+v", got)
	}
	if s := a.Stats(); s.NackRetries != 1 || s.Timeouts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestARQDropsStaleAndDuplicateResponses(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 8}
	a := NewARQ(k, link, arqConfig())
	var got []ocapi.Packet
	a.OnComplete = func(p ocapi.Packet) { got = append(got, p) }

	a.TrySend(readReq(5))
	first := link.sent[0]
	k.After(sim.Microsecond, func() {
		a.OnResponse(first.Nack()) // attempt 0 fails; retry has Seq 1
	})
	k.After(2*sim.Microsecond, func() {
		stale := first.Response() // late reply to superseded attempt 0
		a.OnResponse(stale)
		a.OnResponse(link.sent[1].Response()) // genuine
		a.OnResponse(link.sent[1].Response()) // duplicate after resolution
		a.OnResponse(ocapi.Packet{Op: ocapi.OpReadResp, Tag: 999, Size: ocapi.CacheLineSize})
	})
	k.Run()

	if len(got) != 1 {
		t.Fatalf("completions = %d, want 1", len(got))
	}
	if s := a.Stats(); s.StaleDrops != 3 {
		t.Fatalf("stale drops = %d, want 3", s.StaleDrops)
	}
}

func TestARQCorruptResponseDiscardedThenTimeoutRecovers(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 8}
	a := NewARQ(k, link, arqConfig())
	var got []ocapi.Packet
	a.OnComplete = func(p ocapi.Packet) { got = append(got, p) }

	a.TrySend(readReq(2))
	k.After(sim.Microsecond, func() {
		r := link.sent[0].Response()
		r.Corrupt = true
		a.OnResponse(r) // discarded; timeout drives the retry
	})
	k.Ticker(sim.Microsecond, func() bool {
		for _, p := range link.sent {
			if p.Seq == 1 {
				a.OnResponse(p.Response())
				return false
			}
		}
		return true
	})
	k.Run()

	if len(got) != 1 || got[0].Poison {
		t.Fatalf("completions = %+v", got)
	}
	if s := a.Stats(); s.CorruptResp != 1 || s.Timeouts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestARQQueuesRetryWhenLinkFull(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 1}
	a := NewARQ(k, link, arqConfig())
	var got []ocapi.Packet
	a.OnComplete = func(p ocapi.Packet) { got = append(got, p) }

	a.TrySend(readReq(1)) // consumes the only slot; first attempt times out
	k.After(15*sim.Microsecond, func() {
		if a.QueuedRetries() != 1 {
			t.Fatalf("queued retries = %d after timeout with full link", a.QueuedRetries())
		}
		link.free(1)
		if a.QueuedRetries() != 0 || len(link.sent) != 2 {
			t.Fatalf("retry not drained: queued=%d sent=%d", a.QueuedRetries(), len(link.sent))
		}
		a.OnResponse(link.sent[1].Response())
	})
	k.Run()

	if len(got) != 1 || got[0].Poison {
		t.Fatalf("completions = %+v", got)
	}
}

func TestARQProbePassThrough(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 8}
	a := NewARQ(k, link, arqConfig())
	var got []ocapi.Packet
	a.OnComplete = func(p ocapi.Packet) { got = append(got, p) }

	probe := ocapi.Packet{Op: ocapi.OpProbe, Tag: 0xFFFF0000, Src: 0, Dst: 1}
	if !a.TrySend(probe) {
		t.Fatal("probe refused")
	}
	if a.Outstanding() != 0 {
		t.Fatal("probe tracked by ARQ")
	}
	a.OnResponse(probe.Response())
	if len(got) != 1 || got[0].Op != ocapi.OpProbeResp {
		t.Fatalf("probe completion = %+v", got)
	}
	k.Run()
}

func TestARQConfigValidation(t *testing.T) {
	base := arqConfig()
	bad := []func(*ARQConfig){
		func(c *ARQConfig) { c.Timeout = 0 },
		func(c *ARQConfig) { c.MaxRetries = -1 },
		func(c *ARQConfig) { c.BackoffMult = 0.5 },
		func(c *ARQConfig) { c.BackoffCap = -1 },
		func(c *ARQConfig) { c.JitterFrac = 1 },
	}
	for i, mut := range bad {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if err := DefaultARQConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestARQRecycledTxnImmuneToStaleTimer pins the stale-timer immunity of a
// recycled entry: a transaction whose retry is acked returns its entry to
// the free list while the retry's own deadline would still be scheduled.
// Reusing the same tag immediately pops that same entry; the superseded
// deadline must never fire against it — neither retransmitting nor killing
// the new transaction, and never mutating the already-delivered response.
// (The timer wheel enforces this by construction: completion cancels the
// deadline for real, and the wheel's own generation guard inert-izes any
// id that survives into a recycled cell — see the sim.TimerWheel suite.)
func TestARQRecycledTxnImmuneToStaleTimer(t *testing.T) {
	k := sim.NewKernel()
	link := &fakeLink{space: 64}
	a := NewARQ(k, link, arqConfig()) // 10us timeout, x2 backoff, no jitter
	var got []ocapi.Packet
	a.OnComplete = func(p ocapi.Packet) { got = append(got, p) }

	// Transaction 1: attempt 0 is never answered; the 10us deadline
	// retransmits Seq 1 and arms a 20us deadline (fires at 30us).
	if !a.TrySend(readReq(1)) {
		t.Fatal("send refused")
	}
	k.At(sim.Time(11*sim.Microsecond), func() {
		var retry ocapi.Packet
		for _, p := range link.sent {
			if p.Seq == 1 {
				retry = p
			}
		}
		if retry.Op == ocapi.OpInvalid {
			t.Fatal("no retransmission by 11us")
		}
		a.OnResponse(retry.Response()) // completes + recycles the entry
		recycled := a.freeTxns
		if recycled == nil {
			t.Fatal("completed transaction was not recycled")
		}
		// Reuse the tag while the 30us timer still holds the old
		// generation of the very same entry.
		if !a.TrySend(readReq(1)) {
			t.Fatal("reissue refused")
		}
		if a.txn(1) != recycled {
			t.Fatal("reissue did not pop the recycled entry")
		}
	})
	// Transaction 2 times out at 21us and retransmits (Seq 1, deadline
	// 41us); ack that retry at 32us — after the stale 30us timer fired
	// against the live recycled entry.
	k.At(sim.Time(32*sim.Microsecond), func() {
		a.OnResponse(link.sent[len(link.sent)-1].Response())
	})
	k.Run()

	if len(got) != 2 {
		t.Fatalf("completions = %d, want 2", len(got))
	}
	for i, p := range got {
		if p.Op != ocapi.OpReadResp || p.Tag != 1 || p.Poison {
			t.Fatalf("completion %d mutated or poisoned: %+v", i, p)
		}
	}
	s := a.Stats()
	// Exactly two genuine timeouts (one per transaction's first attempt):
	// had the stale timer matched the recycled entry it would have added a
	// third timeout and retransmit, or killed the live transaction.
	if s.Tracked != 2 || s.Completed != 2 || s.Timeouts != 2 || s.Retransmits != 2 || s.Dead != 0 || s.StaleDrops != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
}

// TestARQTimeoutForBackoffGrowth pins the backoff schedule at high attempt
// counts: capped configurations saturate at BackoffCap, and the uncapped
// BackoffCap == 0 configuration must keep growing monotonically without
// ever overflowing into a non-positive delay (the float64 product is
// clamped before the Duration conversion).
func TestARQTimeoutForBackoffGrowth(t *testing.T) {
	k := sim.NewKernel()

	capped := arqConfig() // 10us timeout, x2 backoff, 10ms cap, no jitter
	a := NewARQ(k, &fakeLink{space: 64}, capped)
	for attempt := 0; attempt < 512; attempt++ {
		d := a.timeoutFor(attempt)
		if d <= 0 {
			t.Fatalf("capped: attempt %d delay %v <= 0", attempt, d)
		}
		if d > capped.BackoffCap {
			t.Fatalf("capped: attempt %d delay %v exceeds cap %v", attempt, d, capped.BackoffCap)
		}
	}
	// The first attempts double exactly until the cap.
	for attempt, want := 0, capped.Timeout; want <= capped.BackoffCap; attempt, want = attempt+1, 2*want {
		if d := a.timeoutFor(attempt); d != want {
			t.Fatalf("capped: attempt %d delay %v, want %v", attempt, d, want)
		}
	}

	uncapped := arqConfig()
	uncapped.BackoffCap = 0
	u := NewARQ(k, &fakeLink{space: 64}, uncapped)
	prev := sim.Duration(0)
	for attempt := 0; attempt < 2048; attempt++ {
		d := u.timeoutFor(attempt)
		if d <= 0 {
			t.Fatalf("uncapped: attempt %d delay %v <= 0 (overflow)", attempt, d)
		}
		if d < prev {
			t.Fatalf("uncapped: attempt %d delay %v < previous %v (non-monotonic)", attempt, d, prev)
		}
		prev = d
	}
	// Saturated delays must still be armable: the kernel accepts them
	// (heap fallback beyond the wheel span) rather than panicking.
	id := k.ArmTimer(u.timeoutFor(2048), u, 0)
	if !k.CancelTimer(id) {
		t.Fatal("saturated backoff delay not armable/cancellable")
	}

	// Jitter at the saturation point keeps the delay positive and finite.
	j := arqConfig()
	j.BackoffCap = 0
	j.JitterFrac = 0.5
	aj := NewARQ(k, &fakeLink{space: 64}, j)
	for attempt := 2040; attempt < 2060; attempt++ {
		if d := aj.timeoutFor(attempt); d <= 0 {
			t.Fatalf("jittered uncapped: attempt %d delay %v <= 0", attempt, d)
		}
	}
}
