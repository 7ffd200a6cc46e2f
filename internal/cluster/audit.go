package cluster

import "fmt"

// Audit checks a drained pool against the invariants every run must keep,
// whatever its workload or faults, and returns one line per violation
// (none when the run leaked nothing). Each line starts with the name of
// the contract it breaks:
//
//   - exactly-once: a borrower's port completions, summed over its
//     backends, equal its ARQ's tracked transactions plus the sends its
//     deadlines withdrew before they reached the NIC (borrowers with ARQ).
//   - ARQ conservation: tracked = completed + dead, with no transaction
//     outstanding and no retransmission queued (borrowers with ARQ).
//   - backend drained: no port command outstanding and no send queued.
//   - injector backlogs empty: no request waits at any NIC's injector.
//   - allocator conserved: on every lender allocated + free = capacity,
//     and allocated = the bytes of the regions attached on it.
//   - live counts zero: every pooled context is back on its free list:
//     backend transactions, DRAM accesses, lender serves and lender-owned
//     packets, the contexts of the hierarchies the pool built, cable
//     segments, switch hops and timer cells.
//   - packet balance: the wire packets still live on the borrowers are
//     exactly those lost at a drop site: injector gates, lender crash drops
//     and lost serves, and the switch.
//   - kernel drained: no event pending and no callee parked in a slot.
func (p *Pool) Audit() []string {
	var out []string
	fail := func(contract, format string, args ...any) {
		out = append(out, contract+": "+fmt.Sprintf(format, args...))
	}
	live := func(n int, format string, args ...any) {
		if n != 0 {
			fail("live counts zero", "%s holds %d", fmt.Sprintf(format, args...), n)
		}
	}
	var packets int
	var lost uint64
	attached := make([]uint64, len(p.Lenders))

	for _, b := range p.Borrowers {
		var ops, unsent uint64
		for i, be := range b.backends {
			ops += be.Reads() + be.Writes()
			unsent += be.ExpiredUnsent()
			if n, q := be.Outstanding(), be.QueuedSends(); n != 0 || q != 0 {
				fail("backend drained", "borrower %d backend %d has %d commands outstanding, %d sends queued",
					b.ID, i, n, q)
			}
			live(be.TxnsLive(), "borrower %d backend %d transactions", b.ID, i)
		}
		if a := b.ARQ; a != nil {
			st := a.Stats()
			if ops != st.Tracked+unsent {
				fail("exactly-once", "borrower %d completed %d port ops, ARQ tracked %d + expired-unsent %d",
					b.ID, ops, st.Tracked, unsent)
			}
			if st.Tracked != st.Completed+st.Dead {
				fail("ARQ conservation", "borrower %d tracked %d != completed %d + dead %d",
					b.ID, st.Tracked, st.Completed, st.Dead)
			}
			if n, q := a.Outstanding(), a.QueuedRetries(); n != 0 || q != 0 {
				fail("ARQ conservation", "borrower %d has %d transactions outstanding, %d retransmissions queued",
					b.ID, n, q)
			}
		}
		if n := b.NIC.InjectorBacklog(); n != 0 {
			fail("injector backlogs empty", "borrower %d injector holds %d requests", b.ID, n)
		}
		for _, r := range b.regions {
			attached[r.Lender] += r.Segment.Size
		}
		live(b.Mem.AccessesLive(), "borrower %d DRAM accesses", b.ID)
		for i, h := range b.hierarchies {
			live(h.ContextsLive(), "borrower %d hierarchy %d contexts", b.ID, i)
		}
		packets += b.NIC.PacketsLive()
		lost += b.NIC.InjectorDropped()
	}

	for i, l := range p.Lenders {
		if n := l.NIC.InjectorBacklog(); n != 0 {
			fail("injector backlogs empty", "lender %d injector holds %d requests", i, n)
		}
		a := l.Alloc
		if a.Allocated()+a.FreeBytes() != a.Capacity() {
			fail("allocator conserved", "lender %d: %d allocated + %d free != capacity %d",
				i, a.Allocated(), a.FreeBytes(), a.Capacity())
		}
		if a.Allocated() != attached[i] {
			fail("allocator conserved", "lender %d allocator holds %d bytes, its regions sum to %d",
				i, a.Allocated(), attached[i])
		}
		live(l.Mem.AccessesLive(), "lender %d DRAM accesses", i)
		live(l.NIC.ServesLive(), "lender %d serves", i)
		live(l.NIC.PacketsLive(), "lender %d own packets", i)
		for j, h := range l.hierarchies {
			live(h.ContextsLive(), "lender %d hierarchy %d contexts", i, j)
		}
		st := l.NIC.Stats()
		lost += st.CrashDrops + st.ServesLost
	}

	links := p.links
	if p.Link != nil {
		links = append(links, p.Link)
	}
	for i, ln := range links {
		live(ln.AtoB.FlightsLive(), "link %d a->b segment", i)
		live(ln.BtoA.FlightsLive(), "link %d b->a segment", i)
	}
	if p.Switch != nil {
		live(p.Switch.HopsLive(), "switch hops")
		lost += p.Switch.Dropped()
	}
	live(p.K.TimerStats().CellsLive, "timer cells")
	if uint64(packets) != lost {
		fail("packet balance", "borrowers hold %d live packets, but %d were lost at drop sites", packets, lost)
	}
	if n, parked := p.K.Pending(), p.K.QueueStats().Parked; n != 0 || parked != 0 {
		fail("kernel drained", "%d events pending, %d callees parked in the slot table", n, parked)
	}
	return out
}
