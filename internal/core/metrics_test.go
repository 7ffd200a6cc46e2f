package core

import (
	"strings"
	"testing"

	"thymesim/internal/cluster"
	"thymesim/internal/control"
	"thymesim/internal/dram"
	"thymesim/internal/metricsplane"
	"thymesim/internal/netlink"
	"thymesim/internal/sim"
	"thymesim/internal/tfnic"
)

// series names one exported child.
type series struct {
	name string
	l    metricsplane.Labels
}

// exportedCounters returns every thymesim_*_total counter the plane
// exports, except the plane's own experiment progress.
func exportedCounters(p *metricsplane.Plane) map[series]uint64 {
	out := make(map[series]uint64)
	for _, s := range p.Snapshot() {
		if s.Kind != metricsplane.KindCounter || !strings.HasSuffix(s.Name, "_total") ||
			strings.HasPrefix(s.Name, "thymesim_experiments_") {
			continue
		}
		out[series{s.Name, s.Labels}] = uint64(s.Value)
	}
	return out
}

// testbedCounters sums, over the testbeds, the Stats field or getter each
// exported counter is meant to mirror, keyed the way the plane labels it.
// It is written out independently of cluster.Pool's collector on purpose.
func testbedCounters(t *testing.T, tbs []*cluster.Testbed) map[series]uint64 {
	t.Helper()
	want := make(map[series]uint64)
	add := func(name string, l metricsplane.Labels, v uint64) { want[series{name, l}] += v }
	addNIC := func(node int, s tfnic.Stats) {
		l := metricsplane.ForNode(node)
		add("thymesim_nic_requests_sent_total", l, s.RequestsSent)
		add("thymesim_nic_responses_sent_total", l, s.ResponsesSent)
		add("thymesim_nic_requests_served_total", l, s.RequestsServed)
		add("thymesim_nic_responses_delivered_total", l, s.ResponsesDelivered)
		add("thymesim_nic_probes_served_total", l, s.ProbesServed)
		add("thymesim_nic_translation_faults_total", l, s.TranslationFaults)
		add("thymesim_nic_nacks_sent_total", l, s.NacksSent)
		add("thymesim_nic_crash_drops_total", l, s.CrashDrops)
		add("thymesim_nic_serves_lost_total", l, s.ServesLost)
		add("thymesim_nic_wipe_nacks_total", l, s.WipeNacks)
	}
	addDRAM := func(node int, m *dram.DRAM) {
		l := metricsplane.ForNode(node)
		add("thymesim_dram_reads_total", l, m.Reads())
		add("thymesim_dram_writes_total", l, m.Writes())
		add("thymesim_dram_bytes_total", l, m.Bytes())
	}
	addLink := func(node int, c *netlink.Channel) {
		l := metricsplane.ForNode(node).WithLink(0)
		add("thymesim_link_flits_delivered_total", l, c.Delivered())
		add("thymesim_link_bytes_total", l, c.Bytes())
	}
	for _, tb := range tbs {
		addNIC(cluster.BorrowerID, tb.BorrowerNIC.Stats())
		addNIC(cluster.LenderID, tb.LenderNIC.Stats())
		addDRAM(cluster.BorrowerID, tb.BorrowerMem)
		addDRAM(cluster.LenderID, tb.LenderMem)
		addLink(cluster.BorrowerID, tb.Link.AtoB)
		addLink(cluster.LenderID, tb.Link.BtoA)

		b := metricsplane.ForNode(cluster.BorrowerID)
		a := tb.ARQ.Stats()
		add("thymesim_arq_tracked_total", b, a.Tracked)
		add("thymesim_arq_completed_total", b, a.Completed)
		add("thymesim_arq_retransmits_total", b, a.Retransmits)
		add("thymesim_arq_nack_retries_total", b, a.NackRetries)
		add("thymesim_arq_timeouts_total", b, a.Timeouts)
		add("thymesim_arq_dead_total", b, a.Dead)
		add("thymesim_arq_stale_drops_total", b, a.StaleDrops)
		add("thymesim_arq_corrupt_responses_total", b, a.CorruptResp)

		node := tb.Pool().Borrowers[0]
		if n := len(node.Backends()); n != 1 {
			t.Fatalf("chaos testbed has %d backends, want the shared port only", n)
		}
		be := tb.RemoteBackend()
		add("thymesim_fill_reads_total", b, be.Reads())
		add("thymesim_fill_writes_total", b, be.Writes())
		add("thymesim_fill_poisoned_total", b, be.Poisoned())
		add("thymesim_fill_deadline_expired_total", b, be.Expired())
		add("thymesim_fill_expired_unsent_total", b, be.ExpiredUnsent())
		add("thymesim_fill_late_responses_total", b, be.LateResponses())

		for _, h := range node.Hierarchies() {
			st := h.CacheStats()
			add("thymesim_llc_hits_total", b, st.Hits)
			add("thymesim_llc_misses_total", b, st.Misses)
			add("thymesim_llc_evictions_total", b, st.Evictions)
			add("thymesim_llc_writebacks_total", b, st.Writebacks)
		}
	}
	return want
}

// TestChaosCountersAgree runs the fault-injected chaos campaign with a
// metrics plane attached and checks that its two readouts of the same
// Stats agree: every exported thymesim_*_total series equals the sum of
// the Stats field or getter it reads, and the campaign's aggregate
// counter table equals the same Stats summed over the runs.
func TestChaosCountersAgree(t *testing.T) {
	o := chaosOptions()
	cfg := DefaultChaosConfig()
	o.Metrics = metricsplane.New()
	o.Metrics.SetDumpWriter(nil)
	rep := runChaos(t, o, cfg)
	if !rep.OK() {
		t.Fatalf("campaign failed: %+v", rep.Results)
	}
	campaign := exportedCounters(o.Metrics)

	// Replay the seeded campaign on testbeds the test keeps, so their
	// Stats can be read after the runs.
	o.Metrics = metricsplane.New()
	var tbs []*cluster.Testbed
	for _, name := range cfg.Workloads {
		tb, gs := o.chaosTestbed(cfg)
		o.runChaosOn(tb, gs, cfg, name)
		tbs = append(tbs, tb)
	}
	want := testbedCounters(t, tbs)
	if got := exportedCounters(o.Metrics); len(got) != len(campaign) {
		t.Fatalf("replay exports %d counters, campaign %d", len(got), len(campaign))
	}

	for s, v := range campaign {
		w, ok := want[s]
		if !ok {
			t.Errorf("exported %s%+v has no Stats source in the test", s.name, s.l)
			continue
		}
		if v != w {
			t.Errorf("%s%+v: exported %d, Stats sum %d", s.name, s.l, v, w)
		}
	}
	for s := range want {
		if _, ok := campaign[s]; !ok {
			t.Errorf("%s%+v not exported", s.name, s.l)
		}
	}
	if campaign[series{"thymesim_arq_retransmits_total", metricsplane.ForNode(cluster.BorrowerID)}] == 0 {
		t.Fatal("campaign exported no retransmits: the fault mix did not fire")
	}

	// The aggregate table sums the same Stats, one row per counter in
	// chaosCounterNames order.
	if len(rep.Counters.Rows) != len(chaosCounterNames) {
		t.Fatalf("counter table has %d rows, want %d", len(rep.Counters.Rows), len(chaosCounterNames))
	}
	for i, name := range chaosCounterNames {
		if got := rep.Counters.Cell(i, 0); got != name {
			t.Errorf("counter row %d = %q, want %q", i, got, name)
		}
	}
	b := metricsplane.ForNode(cluster.BorrowerID)
	for name, metric := range map[string]string{
		"arq_retransmits":  "thymesim_arq_retransmits_total",
		"arq_timeouts":     "thymesim_arq_timeouts_total",
		"arq_nack_retries": "thymesim_arq_nack_retries_total",
		"arq_dead":         "thymesim_arq_dead_total",
		"backend_poisoned": "thymesim_fill_poisoned_total",
	} {
		if got, w := chaosCounter(t, rep, name), want[series{metric, b}]; got != w {
			t.Errorf("counter table %s = %d, Stats sum %d", name, got, w)
		}
	}
}

// TestBreakerCountersAgree drives a breaker through every transition
// kind with a collector attached and checks the exported counters and
// state gauge against its Stats and transition log.
func TestBreakerCountersAgree(t *testing.T) {
	o := fastOptions()
	o.Metrics = metricsplane.New()
	k := sim.NewKernel()
	cfg := control.DefaultBreakerConfig()
	brk, err := control.NewBreaker(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.collectBreaker(k, brk)
	fail := func() {
		for i := 0; i < cfg.Window; i++ {
			brk.Allow()
			brk.Record(false)
		}
	}
	fail()                                // Closed -> Open
	k.Run()                               // dwell: Open -> Half-Open
	brk.Allow()                           // a trial
	brk.Record(false)                     // Half-Open -> Open
	k.Run()                               // Open -> Half-Open
	for i := 0; i < cfg.CloseAfter; i++ { // Half-Open -> Closed
		brk.Allow()
		brk.Record(true)
	}
	fail() // Closed -> Open again, then short-circuit one access
	brk.Allow()
	k.RunUntil(k.Now()) // publish without firing the dwell

	st := brk.Stats()
	if st.Trips != 2 || st.HalfOpens != 2 || st.Reopens != 1 || st.Closes != 1 || st.ShortCircuited == 0 {
		t.Fatalf("scenario missed a transition kind: %+v", st)
	}
	if n := uint64(len(brk.Transitions())); st.Transitions() != n {
		t.Fatalf("Stats count %d transitions, log holds %d", st.Transitions(), n)
	}
	got := exportedCounters(o.Metrics)
	b := metricsplane.ForNode(cluster.BorrowerID)
	for name, w := range map[string]uint64{
		"thymesim_breaker_transitions_total":     st.Transitions(),
		"thymesim_breaker_trips_total":           st.Trips,
		"thymesim_breaker_reopens_total":         st.Reopens,
		"thymesim_breaker_closes_total":          st.Closes,
		"thymesim_breaker_short_circuited_total": st.ShortCircuited,
	} {
		if v := got[series{name, b}]; v != w {
			t.Errorf("%s = %d, Stats %d", name, v, w)
		}
	}
	for _, s := range o.Metrics.Snapshot() {
		if s.Name == "thymesim_breaker_state" && s.Value != float64(control.BreakerOpen) {
			t.Errorf("state gauge %v, breaker is %v", s.Value, brk.State())
		}
	}
	if n := o.Metrics.Recorder().Total(); n != uint64(len(brk.Transitions())) {
		t.Errorf("flight recorder holds %d events, breaker made %d transitions", n, len(brk.Transitions()))
	}
}
