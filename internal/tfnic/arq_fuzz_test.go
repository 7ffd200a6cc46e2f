package tfnic

import (
	"testing"

	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// FuzzARQResponseStream feeds the ARQ layer an adversarial interleaving of
// sends, genuine responses, duplicate/stale/wrapped sequence numbers,
// nacks, corrupt responses, unknown tags, and NIC space churn. Whatever the
// script, the accounting invariants must hold once the kernel drains:
// every tracked transaction resolves exactly once (completed or dead),
// nothing stays outstanding, and completions only fire for live tags.
// After every action the ARQ's outstanding count must equal the mirror's
// live set, and every mirrored tag must be tracked.
func FuzzARQResponseStream(f *testing.F) {
	// Seed corpus: each byte is one action (see the switch below).
	f.Add([]byte{0, 8, 1, 9, 1})              // two sends, two responses
	f.Add([]byte{0, 3, 3, 3})                 // nack storm to death
	f.Add([]byte{0, 2, 1, 2})                 // stale around a completion
	f.Add([]byte{0, 4, 4, 4, 1})              // corrupt, recover on retry
	f.Add([]byte{0, 7, 7, 1})                 // wrapped sequence numbers
	f.Add([]byte{0, 8, 16, 24, 32, 5, 6, 1})  // tag churn + unknown + free
	f.Add([]byte{0, 0, 1, 0, 1})              // reuse a tag after completion
	f.Add([]byte{6, 6, 0, 8, 16, 24, 32, 40}) // overflow the command queue

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			t.Skip("bounded scripts keep the timer cascade small")
		}
		k := sim.NewKernel()
		link := &fakeLink{space: 3} // tight: forces retryQ traffic
		a := NewARQ(k, link, arqConfig())

		// Mirror of the tracked set, maintained from the outside: TrySend
		// successes add, completions remove. The ARQ must agree with it.
		live := map[uint32]bool{}
		completions := 0
		a.OnComplete = func(p ocapi.Packet) {
			if !live[p.Tag] {
				t.Fatalf("completion for tag %d which is not live", p.Tag)
			}
			delete(live, p.Tag)
			completions++
		}

		// minLive picks the lowest live tag — deterministic regardless of
		// map iteration order.
		minLive := func() (uint32, bool) {
			found := false
			var min uint32
			for tag := range live {
				if !found || tag < min {
					min, found = tag, true
				}
			}
			return min, found
		}
		// respond builds a response to tag's current live attempt, with the
		// sequence number offset by dSeq (0 = genuine).
		respond := func(tag uint32, dSeq uint16, nack, corrupt bool) {
			tx := a.txn(tag)
			if tx == nil {
				return
			}
			p := tx.pkt
			p.Seq = uint16(tx.attempts-1) + dSeq
			if nack {
				p.NackInPlace()
			} else {
				p.RespondInPlace()
			}
			p.Corrupt = corrupt
			a.OnResponse(p)
		}

		// checkLive compares the ARQ's tracked set with the mirror.
		checkLive := func(step int) {
			if a.Outstanding() != len(live) {
				t.Fatalf("step %d: Outstanding() = %d, mirror has %d live tags",
					step, a.Outstanding(), len(live))
			}
			for tag := range live {
				if a.txn(tag) == nil {
					t.Fatalf("step %d: live tag %d is not tracked", step, tag)
				}
			}
		}

		// One action per byte, at strictly increasing instants so ARQ
		// timeouts (10us, then backoff) interleave with the script.
		for i, b := range script {
			b := b
			k.At(sim.Time(i+1)*sim.Time(3*sim.Microsecond), func() {
				switch b % 8 {
				case 0: // send a new transaction (tag derived from the byte)
					tag := uint32(b)
					if live[tag] {
						return // TrySend panics on live tags by contract
					}
					if a.TrySend(readReq(tag)) {
						live[tag] = true
					}
				case 1: // genuine response to the lowest live tag
					if tag, ok := minLive(); ok {
						respond(tag, 0, false, false)
					}
				case 2: // stale response: superseded attempt number
					if tag, ok := minLive(); ok {
						respond(tag, 1, false, false)
					}
				case 3: // lender nack
					if tag, ok := minLive(); ok {
						respond(tag, 0, true, false)
					}
				case 4: // response damaged in flight
					if tag, ok := minLive(); ok {
						respond(tag, 0, false, true)
					}
				case 5: // response for a tag that was never ours
					p := readReq(0xDEAD0000 + uint32(b))
					p.RespondInPlace()
					a.OnResponse(p)
				case 6: // NIC command-queue space frees
					link.free(1)
				case 7: // wrapped sequence number (wildly stale duplicate)
					if tag, ok := minLive(); ok {
						respond(tag, 0x8000, false, false)
					}
				}
				checkLive(i)
			})
		}
		// After the script, open the floodgates so queued retransmissions
		// can drain and every survivor marches to completion or death.
		k.At(sim.Time(len(script)+2)*sim.Time(3*sim.Microsecond), func() {
			link.free(1 << 20)
		})
		k.Run()

		st := a.Stats()
		if a.Outstanding() != 0 {
			t.Fatalf("%d transactions never resolved (stats %+v)", a.Outstanding(), st)
		}
		if a.QueuedRetries() != 0 {
			t.Fatalf("%d retransmissions stuck in the queue", a.QueuedRetries())
		}
		if len(live) != 0 {
			t.Fatalf("mirror still has %d live tags the ARQ forgot", len(live))
		}
		if st.Tracked != st.Completed+st.Dead {
			t.Fatalf("accounting leak: tracked %d != completed %d + dead %d",
				st.Tracked, st.Completed, st.Dead)
		}
		if uint64(completions) != st.Tracked {
			t.Fatalf("delivered %d completions for %d tracked transactions",
				completions, st.Tracked)
		}
	})
}
