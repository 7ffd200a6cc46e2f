// ARQ retransmission for the borrower NIC. The hardware prototype has no
// end-to-end recovery: a request lost or corrupted on the wire stalls the
// issuing load forever. ARQ interposes between the memory port and the NIC
// and turns link faults into bounded-latency events — sequence-numbered
// attempts, per-transaction timeouts, exponential backoff with jitter, and
// after retry exhaustion a poisoned completion instead of a hang.
package tfnic

import (
	"fmt"

	"thymesim/internal/metricsplane"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// ARQConfig parameterizes the retransmission layer.
type ARQConfig struct {
	// Timeout is the first attempt's response deadline.
	Timeout sim.Duration
	// MaxRetries bounds retransmissions per transaction; the transaction
	// dies (poisoned completion) after 1+MaxRetries failed attempts.
	MaxRetries int
	// BackoffMult scales the timeout per retry (>= 1).
	BackoffMult float64
	// BackoffCap bounds the grown timeout (0 = uncapped).
	BackoffCap sim.Duration
	// JitterFrac spreads each backoff uniformly over [1-j, 1+j] to
	// desynchronize retry storms; 0 disables jitter.
	JitterFrac float64
	// Seed feeds the jitter stream (determinism).
	Seed uint64
}

// Validate checks the configuration.
func (c ARQConfig) Validate() error {
	if c.Timeout <= 0 {
		return fmt.Errorf("tfnic: ARQ timeout %v", c.Timeout)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("tfnic: ARQ max retries %d", c.MaxRetries)
	}
	if c.BackoffMult < 1 {
		return fmt.Errorf("tfnic: ARQ backoff multiplier %g < 1", c.BackoffMult)
	}
	if c.BackoffCap < 0 {
		return fmt.Errorf("tfnic: negative ARQ backoff cap")
	}
	if c.JitterFrac < 0 || c.JitterFrac >= 1 {
		return fmt.Errorf("tfnic: ARQ jitter fraction %g outside [0,1)", c.JitterFrac)
	}
	return nil
}

// DefaultARQConfig returns a recovery profile tuned to the testbed's RTTs:
// the first timeout comfortably exceeds a loaded round trip, and five
// doubling retries cover outages up to a few milliseconds.
func DefaultARQConfig() ARQConfig {
	return ARQConfig{
		Timeout:     100 * sim.Microsecond,
		MaxRetries:  5,
		BackoffMult: 2,
		BackoffCap:  2 * sim.Millisecond,
		JitterFrac:  0.1,
		Seed:        1,
	}
}

// ARQStats counts retransmission-layer events.
type ARQStats struct {
	Tracked     uint64 // block transactions accepted for tracking
	Completed   uint64 // transactions finished with a genuine response
	Retransmits uint64 // retry attempts sent (or queued) after a failure
	NackRetries uint64 // retries triggered by an explicit lender nack
	Timeouts    uint64 // retries triggered by a response deadline
	Dead        uint64 // transactions that exhausted retries (poisoned)
	StaleDrops  uint64 // responses for unknown tags or superseded attempts
	CorruptResp uint64 // responses discarded because they arrived damaged
}

type arqTxn struct {
	pkt      ocapi.Packet // as given by the port, pre-translation
	attempts int          // transmissions so far; Seq of the live attempt is attempts-1
	timer    sim.TimerID  // the live attempt's response deadline
	next     *arqTxn      // free-list link while recycled
}

// Handle implements sim.Handler: the attempt whose tag rides in arg hit
// its response deadline. The kernel's timer wheel cancels deadlines for
// real (OnResponse/recycle call CancelTimer), so a firing timer always
// belongs to the live attempt — no generation bookkeeping per site.
func (a *ARQ) Handle(arg uint64) {
	tag := uint32(arg)
	t := a.txn(tag)
	if t == nil {
		return // unreachable: resolution cancels the deadline
	}
	a.stats.Timeouts++
	a.retryOrDie(tag, t)
}

// ARQ wraps a NIC with go-back-on-timeout retransmission for block
// operations. It implements the memport.Sender surface, so it slots in
// front of RemoteBackend unchanged; probes pass through untracked (the
// attach handshake's own deadline is their recovery). Wire NIC responses to
// OnResponse, and consume resolved transactions from OnComplete.
type ARQ struct {
	k   *sim.Kernel
	nic arqLink
	cfg ARQConfig
	rng *sim.Rand

	// txns holds each tracked transaction at its tag's index (nil when the
	// tag is not tracked). It grows on demand to the highest tag sent, so
	// a lookup is one bounds check and one load; live counts the non-nil
	// entries.
	txns []*arqTxn
	live int
	// freeTxns recycles transaction entries so a warmed-up ARQ layer
	// tracks and times out without allocating. Timeout deadlines live on
	// the kernel's timer wheel (ArmTimer/CancelTimer), which supplies the
	// stale-timer protection the old per-transaction generation counter
	// existed for.
	freeTxns *arqTxn
	// retryQ holds retransmissions waiting for NIC command-queue space;
	// they take precedence over new sends so recovery cannot starve.
	retryQ []ocapi.Packet

	// OnComplete receives every resolved transaction: genuine responses,
	// and poisoned ones synthesized for dead transactions. Probe responses
	// pass through here too.
	OnComplete func(ocapi.Packet)

	stats ARQStats
	rec   metricsplane.NodeRecorder // retransmits, deaths, corrupt responses
}

// arqLink is the slice of the NIC the retransmission layer drives
// (satisfied by *NIC; narrowed for testability).
type arqLink interface {
	TrySend(p ocapi.Packet) bool
	OnCmdSpace(fn func())
	CmdSpace() int
}

// NewARQ wraps nic with retransmission.
func NewARQ(k *sim.Kernel, nic arqLink, cfg ARQConfig) *ARQ {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &ARQ{
		k:   k,
		nic: nic,
		cfg: cfg,
		rng: sim.NewRand(cfg.Seed),
	}
	nic.OnCmdSpace(a.drainRetries)
	return a
}

// SetRecorder attaches the metrics plane's flight-recorder handle for
// retransmits, deaths and corrupt responses (observe-only). The counters
// in Stats are pulled by the plane.
func (a *ARQ) SetRecorder(rec metricsplane.NodeRecorder) { a.rec = rec }

// Stats returns the retransmission counters.
func (a *ARQ) Stats() ARQStats { return a.stats }

// Outstanding returns tracked transactions awaiting resolution.
func (a *ARQ) Outstanding() int { return a.live }

// txn returns the transaction tracked under tag, or nil.
func (a *ARQ) txn(tag uint32) *arqTxn {
	if uint64(tag) >= uint64(len(a.txns)) {
		return nil
	}
	return a.txns[tag]
}

// track records t under tag, growing the table to cover it.
func (a *ARQ) track(tag uint32, t *arqTxn) {
	if n := int(tag) + 1; n > len(a.txns) {
		a.txns = append(a.txns, make([]*arqTxn, n-len(a.txns))...)
	}
	a.txns[tag] = t
	a.live++
}

// untrack forgets the transaction tracked under tag.
func (a *ARQ) untrack(tag uint32) {
	a.txns[tag] = nil
	a.live--
}

// QueuedRetries returns retransmissions waiting for NIC space.
func (a *ARQ) QueuedRetries() int { return len(a.retryQ) }

// TrySend implements memport.Sender. Block requests are tracked and
// retransmitted on loss; other requests (probes) pass straight through.
func (a *ARQ) TrySend(p ocapi.Packet) bool {
	if p.Op != ocapi.OpReadBlock && p.Op != ocapi.OpWriteBlock {
		return a.nic.TrySend(p)
	}
	if len(a.retryQ) > 0 && a.nic.CmdSpace() <= len(a.retryQ) {
		return false // leave the remaining space to pending retransmissions
	}
	if a.txn(p.Tag) != nil {
		panic(fmt.Sprintf("tfnic: ARQ send with live tag %d", p.Tag))
	}
	p.Seq = 0
	if !a.nic.TrySend(p) {
		return false
	}
	t := a.freeTxns
	if t == nil {
		t = &arqTxn{}
	} else {
		a.freeTxns = t.next
		t.next = nil
	}
	t.pkt = p
	t.attempts = 1
	a.track(p.Tag, t)
	a.stats.Tracked++
	a.armTimeout(p.Tag, t)
	return true
}

// recycle returns a resolved transaction entry to the free list. Any
// still-armed deadline is cancelled for real on the wheel; on death paths
// (where the deadline itself fired) the cancel is a stale-id no-op.
func (a *ARQ) recycle(t *arqTxn) {
	a.k.CancelTimer(t.timer)
	t.timer = sim.TimerID{}
	t.pkt = ocapi.Packet{}
	t.next = a.freeTxns
	a.freeTxns = t
}

// OnCmdSpace implements memport.Sender.
func (a *ARQ) OnCmdSpace(fn func()) { a.nic.OnCmdSpace(fn) }

// OnResponse consumes a response delivered by the NIC. Genuine completions
// resolve their transaction; nacks and damaged responses trigger a retry;
// stale or unknown responses are counted and dropped.
func (a *ARQ) OnResponse(p ocapi.Packet) {
	if p.Op == ocapi.OpProbeResp {
		a.deliver(p)
		return
	}
	t := a.txn(p.Tag)
	if t == nil {
		a.stats.StaleDrops++ // duplicate after resolution, or never ours
		return
	}
	if p.Seq != uint16(t.attempts-1) {
		a.stats.StaleDrops++ // reply to a superseded attempt
		return
	}
	switch {
	case p.Corrupt:
		// The response itself was damaged in flight; discard it and let
		// the attempt's timeout drive the retry (the lender did answer, so
		// an immediate retransmit would race its duplicate detection).
		a.stats.CorruptResp++
		a.rec.Record(a.k.Now(), metricsplane.EvARQCorrupt, 0)
	case p.Op == ocapi.OpNack:
		a.stats.NackRetries++
		a.k.CancelTimer(t.timer) // the nack supersedes the attempt's timeout
		a.retryOrDie(p.Tag, t)
	default:
		a.untrack(p.Tag)
		a.recycle(t)
		a.stats.Completed++
		a.deliver(p)
	}
}

// armTimeout schedules the live attempt's response deadline on the
// kernel's timer wheel.
func (a *ARQ) armTimeout(tag uint32, t *arqTxn) {
	t.timer = a.k.ArmTimer(a.timeoutFor(t.attempts-1), a, uint64(tag))
}

// maxBackoff bounds an uncapped backoff (~13 simulated days): the growth
// loop multiplies a float64, and an unbounded product would overflow the
// Duration conversion into a negative delay at high attempt counts.
const maxBackoff = float64(uint64(1) << 60)

// timeoutFor returns attempt's deadline: Timeout * BackoffMult^attempt,
// capped, with +-JitterFrac spread.
func (a *ARQ) timeoutFor(attempt int) sim.Duration {
	d := float64(a.cfg.Timeout)
	for i := 0; i < attempt; i++ {
		d *= a.cfg.BackoffMult
		if a.cfg.BackoffCap > 0 && d > float64(a.cfg.BackoffCap) {
			d = float64(a.cfg.BackoffCap)
			break
		}
		if d >= maxBackoff {
			d = maxBackoff
			break
		}
	}
	if a.cfg.JitterFrac > 0 {
		d *= 1 + a.cfg.JitterFrac*(2*a.rng.Float64()-1)
	}
	if d < 1 {
		d = 1
	}
	return sim.Duration(d)
}

// retryOrDie retransmits the transaction or, past the retry budget, kills
// it with a poisoned completion.
func (a *ARQ) retryOrDie(tag uint32, t *arqTxn) {
	if t.attempts > a.cfg.MaxRetries {
		a.untrack(tag)
		a.stats.Dead++
		a.rec.Record(a.k.Now(), metricsplane.EvARQDead, uint64(t.pkt.Seq))
		r := t.pkt.Response()
		r.Poison = true
		a.recycle(t)
		a.deliver(r)
		return
	}
	a.stats.Retransmits++
	a.rec.Record(a.k.Now(), metricsplane.EvARQRetransmit, uint64(t.attempts))
	p := t.pkt
	p.Seq = uint16(t.attempts)
	t.attempts++
	if a.nic.TrySend(p) {
		a.armTimeout(tag, t)
		return
	}
	a.retryQ = append(a.retryQ, p)
}

// drainRetries pushes queued retransmissions when NIC space frees.
func (a *ARQ) drainRetries() {
	for len(a.retryQ) > 0 {
		p := a.retryQ[0]
		t := a.txn(p.Tag)
		if t == nil || uint16(t.attempts-1) != p.Seq {
			a.retryQ = a.retryQ[1:] // resolved or superseded while queued
			continue
		}
		if !a.nic.TrySend(p) {
			return
		}
		a.retryQ = a.retryQ[1:]
		a.armTimeout(p.Tag, t)
	}
}

func (a *ARQ) deliver(p ocapi.Packet) {
	if a.OnComplete != nil {
		a.OnComplete(p)
	}
}
