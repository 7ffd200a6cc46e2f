package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"thymesim/internal/sim"
)

func TestNilTracerIsDisabledNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	id := tr.Start(KindRead, 0x40)
	if id != 0 {
		t.Fatalf("nil tracer Start = %d, want 0", id)
	}
	tr.Enter(id, StageMSHR)
	tr.Finish(id)
	tr.Instant("evict", 0)
	if tr.Started() != 0 || tr.Finished() != 0 || tr.Live() != 0 ||
		tr.Skipped() != 0 || tr.Truncated() != 0 || tr.Retained() != 0 {
		t.Fatal("nil tracer counters nonzero")
	}
	if tr.EndToEnd() != nil || tr.StageHist(StageMSHR) != nil {
		t.Fatal("nil tracer histograms nonzero")
	}
	if tr.StageMeanUs(StageMSHR) != 0 || tr.EndToEndMeanUs() != 0 {
		t.Fatal("nil tracer means nonzero")
	}
	if tr.Breakdown() != nil {
		t.Fatal("nil tracer breakdown nonzero")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil tracer trace not valid JSON: %s", buf.Bytes())
	}
}

func TestSamplingIsDeterministicEveryNth(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Config{Sample: 3})
	traced := 0
	for i := 0; i < 9; i++ {
		if id := tr.Start(KindRead, uint64(i)); id != 0 {
			traced++
			tr.Finish(id)
		}
	}
	if traced != 3 {
		t.Fatalf("Sample=3 traced %d of 9, want 3", traced)
	}
	if tr.Skipped() != 6 {
		t.Fatalf("Skipped = %d, want 6", tr.Skipped())
	}
	if tr.Started() != 3 || tr.Finished() != 3 {
		t.Fatalf("started/finished = %d/%d", tr.Started(), tr.Finished())
	}
}

// TestStageSumIdentity drives one span across simulated time and checks
// the invariant the breakdown table depends on: per-stage means sum to
// the end-to-end mean exactly, with the first stage absorbing any gap
// back to the span start.
func TestStageSumIdentity(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Config{})
	var id SpanID
	us := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
	k.At(us(0), func() { id = tr.Start(KindRead, 0x1000) })
	k.At(us(3), func() { tr.Enter(id, StageMSHR) }) // stage 0 backdates to start
	k.At(us(4), func() { tr.Enter(id, StagePortTx) })
	k.At(us(10), func() { tr.Enter(id, StageDRAMAccess) })
	k.At(us(12), func() { tr.Finish(id) })
	k.Run()

	if tr.Finished() != 1 || tr.Live() != 0 {
		t.Fatalf("finished/live = %d/%d", tr.Finished(), tr.Live())
	}
	want := map[Stage]float64{StageMSHR: 4, StagePortTx: 6, StageDRAMAccess: 2}
	sum := 0.0
	for st := Stage(0); st < NumStages; st++ {
		m := tr.StageMeanUs(st)
		sum += m
		if w, ok := want[st]; ok && m != w {
			t.Errorf("StageMeanUs(%v) = %v, want %v", st, m, w)
		} else if !ok && m != 0 {
			t.Errorf("StageMeanUs(%v) = %v, want 0", st, m)
		}
	}
	if e2e := tr.EndToEndMeanUs(); e2e != 12 {
		t.Fatalf("EndToEndMeanUs = %v, want 12", e2e)
	}
	if math.Abs(sum-12) > 1e-12 {
		t.Fatalf("stage means sum to %v, want exactly the end-to-end 12", sum)
	}
}

func TestStaleAndRecycledIDsAreNoOps(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Config{})
	old := tr.Start(KindRead, 1)
	tr.Finish(old)
	// The slot is recycled: a fresh span must not be reachable via the
	// stale id (generation mismatch).
	fresh := tr.Start(KindWrite, 2)
	if fresh == old {
		t.Fatalf("recycled span got identical id %d", fresh)
	}
	tr.Enter(old, StageDRAMQueue)
	tr.Finish(old) // double finish: no-op
	if tr.Finished() != 1 {
		t.Fatalf("Finished = %d after stale double-finish, want 1", tr.Finished())
	}
	tr.Finish(fresh)
	if tr.Finished() != 2 {
		t.Fatalf("Finished = %d, want 2", tr.Finished())
	}
	// Garbage ids beyond the pool are ignored too.
	tr.Enter(SpanID(1<<40|9999), StageMSHR)
	tr.Finish(SpanID(1<<40 | 9999))
	if tr.Finished() != 2 {
		t.Fatalf("Finished = %d after garbage id, want 2", tr.Finished())
	}
}

func TestTransitionOverflowTruncates(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Config{})
	id := tr.Start(KindRead, 0)
	for i := 0; i < maxTransitions+8; i++ {
		tr.Enter(id, StageInjector)
	}
	tr.Finish(id)
	if tr.Truncated() != 1 {
		t.Fatalf("Truncated = %d, want 1", tr.Truncated())
	}
	rows := tr.Breakdown()
	if len(rows) != 1 || rows[0].Stage != StageInjector {
		t.Fatalf("breakdown = %+v", rows)
	}
	if rows[0].Count != maxTransitions {
		t.Fatalf("injector occurrences = %d, want %d", rows[0].Count, maxTransitions)
	}
}

func TestSpanWithoutTransitionsLandsInOther(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Config{})
	var id SpanID
	k.At(0, func() { id = tr.Start(KindRead, 0) })
	k.At(sim.Time(5*sim.Microsecond), func() { tr.Finish(id) })
	k.Run()
	if m := tr.StageMeanUs(StageOther); m != 5 {
		t.Fatalf("StageMeanUs(other) = %v, want 5", m)
	}
	if e2e := tr.EndToEndMeanUs(); e2e != 5 {
		t.Fatalf("EndToEndMeanUs = %v, want 5", e2e)
	}
}

func TestBreakdownRowsAndTable(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Config{})
	var id SpanID
	us := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
	k.At(us(0), func() { id = tr.Start(KindRead, 0) })
	k.At(us(1), func() { tr.Enter(id, StageLinkRequest) })
	k.At(us(4), func() { tr.Enter(id, StageDRAMAccess) })
	k.At(us(5), func() { tr.Finish(id) })
	k.Run()

	rows := tr.Breakdown()
	if len(rows) != 2 {
		t.Fatalf("breakdown rows = %+v, want 2 visited stages", rows)
	}
	// Pipeline order, shares out of the 5us total.
	if rows[0].Stage != StageLinkRequest || rows[1].Stage != StageDRAMAccess {
		t.Fatalf("row order = %v,%v", rows[0].Stage, rows[1].Stage)
	}
	if rows[0].MeanUs != 4 || rows[0].SharePct != 80 {
		t.Fatalf("link_request row = %+v", rows[0])
	}
	if rows[1].MeanUs != 1 || rows[1].SharePct != 20 {
		t.Fatalf("dram_access row = %+v", rows[1])
	}

	tbl := tr.BreakdownTable("t")
	if got := len(tbl.Rows); got != 3 { // 2 stages + end_to_end
		t.Fatalf("table rows = %d, want 3", got)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "end_to_end" || last[2] != "5.0000" || last[4] != "100.0" {
		t.Fatalf("end_to_end row = %v", last)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k, Config{MaxRetained: 2})
	var id SpanID
	us := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
	k.At(us(0), func() { id = tr.Start(KindRead, 0xbeef) })
	k.At(us(1), func() { tr.Enter(id, StageLinkRequest) })
	k.At(us(2), func() { tr.Enter(id, StageDRAMAccess) })
	k.At(us(3), func() { tr.Finish(id) })
	k.At(us(4), func() {
		tr.Instant("llc_evict", 1)
		tr.Instant("llc_evict", 2)
		tr.Instant("llc_evict", 3) // over MaxRetained: dropped
	})
	k.Run()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 1 metadata + 1 enclosing span + 2 stage events + 2 retained instants.
	if len(parsed.TraceEvents) != 6 {
		t.Fatalf("trace has %d events, want 6: %s", len(parsed.TraceEvents), buf.Bytes())
	}
	counts := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		counts[ev.Phase]++
	}
	if counts["M"] != 1 || counts["X"] != 3 || counts["i"] != 2 {
		t.Fatalf("phase counts = %v", counts)
	}
	if parsed.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}
}

// TestEnterAtMatchesEnterAtTheInstant stamps stages ahead of time and
// checks that the span aggregates exactly as one whose stages were
// entered when they happened: a later present-time Enter lands before a
// stamp still in the future, and a span that finishes before its last
// stamps drops them.
func TestEnterAtMatchesEnterAtTheInstant(t *testing.T) {
	ns := func(v int64) sim.Time { return sim.Time(v * int64(sim.Nanosecond)) }
	// live enters each stage at its instant; ahead stamps the link and
	// ingress stages at 10 ns, when the beat leaves the egress queue.
	// Both finish at end.
	run := func(ahead bool, end int64) *Tracer {
		k := sim.NewKernel()
		tr := New(k, Config{})
		var id SpanID
		at := func(v int64, fn func()) { k.At(ns(v), fn) }
		at(0, func() { id = tr.Start(KindRead, 0); tr.Enter(id, StageNICTx) })
		if ahead {
			at(10, func() {
				tr.EnterAt(id, StageLinkRequest, ns(30))
				tr.EnterAt(id, StageLenderIngress, ns(80))
			})
		} else {
			at(30, func() { tr.Enter(id, StageLinkRequest) })
			at(80, func() { tr.Enter(id, StageLenderIngress) })
		}
		at(50, func() { tr.Enter(id, StageOther) }) // between the two stamps
		at(end, func() { tr.Finish(id) })
		k.Run()
		return tr
	}
	for _, end := range []int64{100, 60} {
		live, ahead := run(false, end), run(true, end)
		for st := Stage(0); st < NumStages; st++ {
			if a, b := live.StageHist(st).Count(), ahead.StageHist(st).Count(); a != b {
				t.Errorf("end %dns, %v: %d spans counted live, %d ahead", end, st, a, b)
			}
			if a, b := live.StageMeanUs(st), ahead.StageMeanUs(st); a != b {
				t.Errorf("end %dns, %v: mean %v live, %v ahead", end, st, a, b)
			}
		}
	}
	if got := run(true, 60).StageHist(StageLenderIngress).Count(); got != 0 {
		t.Errorf("a stamp past the span's end was aggregated (%d)", got)
	}
}
