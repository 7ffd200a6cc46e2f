package memport

import (
	"testing"

	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

func deadlineBackend(k *sim.Kernel, fs *fakeSender, d sim.Duration) *RemoteBackend {
	b := NewRemoteBackend(k, fs, 4, 10*sim.Nanosecond, 0, 1)
	b.SetDeadline(d)
	return b
}

func TestDeadlineDeliveryBeatsExpiry(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 10}
	b := deadlineBackend(k, fs, sim.Microsecond)
	var outcomes []bool
	b.SetOutcomeObserver(func(ok bool) { outcomes = append(outcomes, ok) })
	completions := 0
	k.At(0, func() { readLine(b, 0, func() { completions++ }) })
	k.At(sim.Time(100*sim.Nanosecond), func() { b.Deliver(fs.sent[0].Response()) })
	k.Run()
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	if b.Expired() != 0 || b.Poisoned() != 0 || b.LateResponses() != 0 {
		t.Fatalf("expired=%d poisoned=%d late=%d", b.Expired(), b.Poisoned(), b.LateResponses())
	}
	if len(outcomes) != 1 || !outcomes[0] {
		t.Fatalf("outcomes = %v", outcomes)
	}
	if b.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", b.Outstanding())
	}
}

func TestDeadlineExpiresInFlight(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 10}
	b := deadlineBackend(k, fs, sim.Microsecond)
	var outcomes []bool
	b.SetOutcomeObserver(func(ok bool) { outcomes = append(outcomes, ok) })
	completions := 0
	var completedAt sim.Time
	k.At(0, func() { readLine(b, 0, func() { completions++; completedAt = k.Now() }) })
	// The response arrives long after the deadline.
	k.At(sim.Time(3*sim.Microsecond), func() { b.Deliver(fs.sent[0].Response()) })
	k.Run()
	if completions != 1 {
		t.Fatalf("completions = %d (late response must not complete twice)", completions)
	}
	if completedAt != sim.Time(sim.Microsecond) {
		t.Fatalf("completed at %v, want the deadline instant", completedAt)
	}
	if b.Expired() != 1 || b.Poisoned() != 1 {
		t.Fatalf("expired=%d poisoned=%d", b.Expired(), b.Poisoned())
	}
	if b.LateResponses() != 1 {
		t.Fatalf("late responses = %d", b.LateResponses())
	}
	if b.ExpiredUnsent() != 0 {
		t.Fatalf("expired unsent = %d", b.ExpiredUnsent())
	}
	if len(outcomes) != 1 || outcomes[0] {
		t.Fatalf("outcomes = %v (expiry must report failure exactly once)", outcomes)
	}
	// The tag recirculates once the straggler settles.
	if b.Outstanding() != 0 || b.Reads() != 1 {
		t.Fatalf("outstanding=%d reads=%d", b.Outstanding(), b.Reads())
	}
}

func TestDeadlineExpiresQueuedSend(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 0} // NIC saturated: the command never leaves
	b := deadlineBackend(k, fs, sim.Microsecond)
	completions := 0
	k.At(0, func() { readLine(b, 0, func() { completions++ }) })
	k.Run()
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	if b.Expired() != 1 || b.ExpiredUnsent() != 1 {
		t.Fatalf("expired=%d unsent=%d", b.Expired(), b.ExpiredUnsent())
	}
	if b.QueuedSends() != 0 {
		t.Fatalf("queued sends = %d (withdrawn command must leave the queue)", b.QueuedSends())
	}
	if len(fs.sent) != 0 {
		t.Fatalf("sent = %d", len(fs.sent))
	}
	// Accounting identity: completions == sent-and-tracked + expired-unsent.
	if b.Reads() != uint64(len(fs.sent))+b.ExpiredUnsent() {
		t.Fatalf("reads=%d sent=%d unsent=%d", b.Reads(), len(fs.sent), b.ExpiredUnsent())
	}
}

func TestDeadlineExpiresMidPortHop(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 10}
	// Deadline shorter than the CPU->NIC hop: the command expires before it
	// can even queue for a tag.
	b := NewRemoteBackend(k, fs, 4, 10*sim.Nanosecond, 0, 1)
	b.SetDeadline(5 * sim.Nanosecond)
	completions := 0
	k.At(0, func() { readLine(b, 0, func() { completions++ }) })
	k.Run()
	if completions != 1 || b.ExpiredUnsent() != 1 {
		t.Fatalf("completions=%d unsent=%d", completions, b.ExpiredUnsent())
	}
	if len(fs.sent) != 0 || b.QueuedSends() != 0 {
		t.Fatalf("sent=%d queued=%d", len(fs.sent), b.QueuedSends())
	}
}

func TestDeadlineNackStillCountsOneOutcome(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 10}
	b := deadlineBackend(k, fs, sim.Microsecond)
	var outcomes []bool
	b.SetOutcomeObserver(func(ok bool) { outcomes = append(outcomes, ok) })
	k.At(0, func() { readLine(b, 0, func() {}) })
	k.At(sim.Time(100*sim.Nanosecond), func() {
		p := fs.sent[0]
		p.NackInPlace()
		b.Deliver(p)
	})
	k.Run()
	if len(outcomes) != 1 || outcomes[0] {
		t.Fatalf("outcomes = %v (nack is a failure outcome)", outcomes)
	}
	if b.Poisoned() != 1 || b.Expired() != 0 {
		t.Fatalf("poisoned=%d expired=%d", b.Poisoned(), b.Expired())
	}
}

func TestDeadlinePooledTimersRecycle(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 10}
	b := deadlineBackend(k, fs, sim.Microsecond)
	// Several generations of transactions through the same contexts: stale
	// timers must never expire a successor.
	for round := 0; round < 5; round++ {
		completions := 0
		k.At(k.Now(), func() { readLine(b, 0, func() { completions++ }) })
		k.Post(func() {
			k.After(100*sim.Nanosecond, func() { b.Deliver(fs.sent[len(fs.sent)-1].Response()) })
		})
		k.Run()
		if completions != 1 {
			t.Fatalf("round %d: completions = %d", round, completions)
		}
	}
	if b.Expired() != 0 {
		t.Fatalf("stale timer expired a live transaction: %d", b.Expired())
	}
	if b.Reads() != 5 {
		t.Fatalf("reads = %d", b.Reads())
	}
}

func TestNegativeDeadlinePanics(t *testing.T) {
	k := sim.NewKernel()
	b := NewRemoteBackend(k, &fakeSender{space: 1}, 4, 0, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("negative deadline accepted")
		}
	}()
	b.SetDeadline(-sim.Nanosecond)
}

// TestDeadlineZeroKeepsLegacyPath pins that the default (0) arms nothing.
func TestDeadlineZeroKeepsLegacyPath(t *testing.T) {
	k := sim.NewKernel()
	fs := &fakeSender{space: 10}
	b := NewRemoteBackend(k, fs, 4, 10*sim.Nanosecond, 0, 1)
	completions := 0
	k.At(0, func() { readLine(b, 0, func() { completions++ }) })
	k.At(sim.Time(50*sim.Microsecond), func() { b.Deliver(fs.sent[0].Response()) })
	k.Run()
	if completions != 1 || b.Expired() != 0 || b.Poisoned() != 0 {
		t.Fatalf("completions=%d expired=%d poisoned=%d", completions, b.Expired(), b.Poisoned())
	}
	_ = ocapi.CacheLineSize
}
