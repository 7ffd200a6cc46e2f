package cluster

import (
	"thymesim/internal/cache"
	"thymesim/internal/dram"
	"thymesim/internal/memport"
	"thymesim/internal/metricsplane"
	"thymesim/internal/netlink"
	"thymesim/internal/tfnic"
)

// EnableMetrics attaches the metrics plane. The pool registers one
// collector on its kernel that reads every node's, cable's and the
// switch's own counters, and those of the backends and caches built
// later, at the kernel's publish points (metricsplane.Collect). Only
// per-event data is pushed: each backend's fill-latency histogram and
// the flight-recorder events of backends, NICs and ARQ engines. Like
// tracing, the plane only observes — simulated results are identical
// with it on or off. nil is a no-op, so NewPool can call it
// unconditionally.
func (p *Pool) EnableMetrics(pl *metricsplane.Plane) {
	if pl == nil {
		return
	}
	if p.plane != nil {
		panic("cluster: metrics already enabled")
	}
	p.plane = pl
	for _, b := range p.Borrowers {
		b.NIC.SetRecorder(pl.RecorderFor(b.ID))
		if b.ARQ != nil {
			b.ARQ.SetRecorder(pl.RecorderFor(b.ID))
		}
		for i, be := range b.backends {
			be.SetMetrics(pl.FillLatency(b.ID, b.tenants[i]), pl.RecorderFor(b.ID))
		}
	}
	for _, l := range p.Lenders {
		l.NIC.SetRecorder(pl.RecorderFor(l.ID))
	}
	pl.Collect(p.K, p.publish)
	p.wireStageRollups()
}

// publish is the pool's collector: one pass over every component it
// wired. Allocation-free once the plane has seen each series.
func (p *Pool) publish(pb *metricsplane.Publisher) {
	for _, b := range p.Borrowers {
		l := metricsplane.ForNode(b.ID)
		publishNIC(pb, l, b.NIC)
		publishDRAM(pb, l, b.Mem)
		if b.ARQ != nil {
			publishARQ(pb, l, b.ARQ.Stats())
		}
		for i, be := range b.backends {
			publishFill(pb, l.WithTenant(b.tenants[i]), be)
		}
		publishCaches(pb, l, b.hierarchies)
	}
	for _, ln := range p.Lenders {
		l := metricsplane.ForNode(ln.ID)
		publishNIC(pb, l, ln.NIC)
		publishDRAM(pb, l, ln.Mem)
		publishCaches(pb, l, ln.hierarchies)
		a := ln.Alloc
		al := metricsplane.NewLabels().WithLender(ln.Index)
		free, largest := a.FreeBytes(), a.LargestFree()
		frag := 0.0
		if free > 0 {
			frag = 1 - float64(largest)/float64(free)
		}
		pb.Gauge("thymesim_alloc_capacity_bytes", "Lender lendable capacity.", al, float64(a.Capacity()))
		pb.Gauge("thymesim_alloc_allocated_bytes", "Bytes currently allocated.", al, float64(a.Allocated()))
		pb.Gauge("thymesim_alloc_free_bytes", "Bytes currently free.", al, float64(free))
		pb.Gauge("thymesim_alloc_free_spans", "Free spans after coalescing.", al, float64(a.FreeSpanCount()))
		pb.Gauge("thymesim_alloc_largest_free_bytes", "Largest single free span.", al, float64(largest))
		pb.Gauge("thymesim_alloc_fragmentation", "1 - largest_free/free_bytes (0 when coalesced or empty).", al, frag)
	}
	if p.Link != nil {
		// The 1×1 pool's point-to-point cable: link 0 is each node's
		// transmit direction.
		publishChannel(pb, metricsplane.ForNode(BorrowerID).WithLink(0), p.Link.AtoB)
		publishChannel(pb, metricsplane.ForNode(LenderID).WithLink(0), p.Link.BtoA)
	}
	for port, ln := range p.links {
		// Node-to-switch cables: link 0 = toward the switch, 1 = from it.
		publishChannel(pb, metricsplane.ForNode(port).WithLink(0), ln.AtoB)
		publishChannel(pb, metricsplane.ForNode(port).WithLink(1), ln.BtoA)
	}
	if s := p.Switch; s != nil {
		for i := 0; i < s.Ports(); i++ {
			l := metricsplane.NewLabels().WithLink(i)
			pb.Counter("thymesim_switch_forwarded_total", "Buffers forwarded out this port.", l, s.PortForwarded(i))
			pb.Gauge("thymesim_switch_queue_depth", "Output queue depth at publish.", l, float64(s.QueueDepth(i)))
			pb.Gauge("thymesim_switch_peak_queue_depth", "Peak output queue depth.", l, float64(s.PeakOccupancy(i)))
		}
		pb.Counter("thymesim_switch_dropped_total", "Buffers dropped at full output queues.", metricsplane.NewLabels(), s.Dropped())
		pb.Gauge("thymesim_switch_hops_live", "Switch hop contexts borrowed and not returned.", metricsplane.NewLabels(), float64(s.HopsLive()))
	}
}

func publishNIC(pb *metricsplane.Publisher, l metricsplane.Labels, n *tfnic.NIC) {
	st := n.Stats()
	pb.Counter("thymesim_nic_requests_sent_total", "Egress requests put on the wire.", l, st.RequestsSent)
	pb.Counter("thymesim_nic_responses_sent_total", "Egress responses.", l, st.ResponsesSent)
	pb.Counter("thymesim_nic_requests_served_total", "Lender-side serve completions.", l, st.RequestsServed)
	pb.Counter("thymesim_nic_responses_delivered_total", "Ingress responses delivered to the port.", l, st.ResponsesDelivered)
	pb.Counter("thymesim_nic_probes_served_total", "OpProbes answered.", l, st.ProbesServed)
	pb.Counter("thymesim_nic_translation_faults_total", "Egress address-translation misses.", l, st.TranslationFaults)
	pb.Counter("thymesim_nic_nacks_sent_total", "Nack responses sent.", l, st.NacksSent)
	pb.Counter("thymesim_nic_crash_drops_total", "Packets black-holed by a crashed NIC.", l, st.CrashDrops)
	pb.Counter("thymesim_nic_serves_lost_total", "In-flight serves lost to a crash epoch.", l, st.ServesLost)
	pb.Counter("thymesim_nic_wipe_nacks_total", "Block ops nacked by a wiped window.", l, st.WipeNacks)
	pb.Gauge("thymesim_nic_injector_backlog", "Requests queued at the delay injector at publish.", l, float64(n.InjectorBacklog()))
}

func publishARQ(pb *metricsplane.Publisher, l metricsplane.Labels, st tfnic.ARQStats) {
	pb.Counter("thymesim_arq_tracked_total", "Transactions entering ARQ tracking.", l, st.Tracked)
	pb.Counter("thymesim_arq_completed_total", "Transactions acknowledged and released.", l, st.Completed)
	pb.Counter("thymesim_arq_retransmits_total", "ARQ retransmissions.", l, st.Retransmits)
	pb.Counter("thymesim_arq_nack_retries_total", "Nack-triggered retries.", l, st.NackRetries)
	pb.Counter("thymesim_arq_timeouts_total", "Retransmit-timer expiries.", l, st.Timeouts)
	pb.Counter("thymesim_arq_dead_total", "Transactions that exhausted their retry budget.", l, st.Dead)
	pb.Counter("thymesim_arq_stale_drops_total", "Responses dropped for stale sequence or tag.", l, st.StaleDrops)
	pb.Counter("thymesim_arq_corrupt_responses_total", "Responses dropped for CRC corruption.", l, st.CorruptResp)
}

func publishFill(pb *metricsplane.Publisher, l metricsplane.Labels, be *memport.RemoteBackend) {
	pb.Counter("thymesim_fill_reads_total", "Completed remote read fills.", l, be.Reads())
	pb.Counter("thymesim_fill_writes_total", "Completed remote write fills.", l, be.Writes())
	pb.Counter("thymesim_fill_poisoned_total", "Fills completed poisoned (CRC-dead or deadline-expired).", l, be.Poisoned())
	pb.Counter("thymesim_fill_deadline_expired_total", "Fills that hit their end-to-end deadline.", l, be.Expired())
	pb.Counter("thymesim_fill_expired_unsent_total", "Queued sends withdrawn at deadline expiry.", l, be.ExpiredUnsent())
	pb.Counter("thymesim_fill_late_responses_total", "Straggler responses for already-expired fills.", l, be.LateResponses())
	pb.Gauge("thymesim_fill_txns_live", "Fill transaction contexts borrowed and not returned.", l, float64(be.TxnsLive()))
	pb.Gauge("thymesim_fill_outstanding", "Port commands in flight at publish (the MSHR window as the backend sees it).", l, float64(be.Outstanding()))
}

func publishDRAM(pb *metricsplane.Publisher, l metricsplane.Labels, d *dram.DRAM) {
	pb.Counter("thymesim_dram_reads_total", "DRAM read accesses completed.", l, d.Reads())
	pb.Counter("thymesim_dram_writes_total", "DRAM write accesses completed.", l, d.Writes())
	pb.Counter("thymesim_dram_bytes_total", "Bytes moved through DRAM.", l, d.Bytes())
	pb.Gauge("thymesim_dram_utilization", "Mean channel busy fraction since start.", l, d.Utilization())
	pb.Gauge("thymesim_dram_accesses_live", "DRAM access contexts borrowed and not returned.", l, float64(d.AccessesLive()))
}

func publishChannel(pb *metricsplane.Publisher, l metricsplane.Labels, c *netlink.Channel) {
	pb.Counter("thymesim_link_flits_delivered_total", "Flits delivered on this directed channel.", l, c.Delivered())
	pb.Counter("thymesim_link_bytes_total", "Bytes delivered on this directed channel.", l, c.Bytes())
	pb.Gauge("thymesim_link_utilization", "Wire busy fraction since start.", l, c.Utilization())
	pb.Gauge("thymesim_link_flights_live", "Beats in the cable's segment: off the sender's queue, not yet in the receiver's.", l, float64(c.FlightsLive()))
}

// publishCaches publishes a node's LLC counters summed over its
// hierarchies; a node that built none has no series.
func publishCaches(pb *metricsplane.Publisher, l metricsplane.Labels, hs []*memport.Hierarchy) {
	if len(hs) == 0 {
		return
	}
	var sum cache.Stats
	for _, h := range hs {
		st := h.CacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.Writebacks += st.Writebacks
	}
	pb.Counter("thymesim_llc_hits_total", "LLC hits.", l, sum.Hits)
	pb.Counter("thymesim_llc_misses_total", "LLC misses.", l, sum.Misses)
	pb.Counter("thymesim_llc_evictions_total", "LLC evictions.", l, sum.Evictions)
	pb.Counter("thymesim_llc_writebacks_total", "Dirty-line writebacks.", l, sum.Writebacks)
}
