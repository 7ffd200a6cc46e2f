package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// Self time is a span's duration minus what its direct children cover,
// and the Chrome export round-trips through the validator.
func TestRecorderSelfTimeAndChromeTrace(t *testing.T) {
	rec := newRecorder()
	rec.on = true
	e := rec.epoch
	at := func(ms int) time.Time { return e.Add(time.Duration(ms) * time.Millisecond) }
	unit := rec.add("unit", at(0), at(100), -1, 0)
	run := rec.add("sim.run", at(10), at(90), unit, 0)
	rec.add("memport.issue", at(20), at(30), run, 0)
	rec.add("memport.issue", at(40), at(60), run, 0)

	self := rec.selfTimes()
	for name, want := range map[string]float64{"unit": 0.020, "sim.run": 0.050, "memport.issue": 0.030} {
		if got := self[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
	if got := rec.totals()["memport.issue"]; math.Abs(got-0.030) > 1e-9 {
		t.Errorf("total(memport.issue) = %v", got)
	}

	var b bytes.Buffer
	if err := rec.writeChrome(&b); err != nil {
		t.Fatal(err)
	}
	if n, err := checkChrome(&b); err != nil || n != 4 {
		t.Fatalf("checkChrome = %d, %v", n, err)
	}

	rec.add("escapes", at(95), at(120), run, 0)
	b.Reset()
	if err := rec.writeChrome(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := checkChrome(&b); err == nil {
		t.Fatal("a child outliving its parent passed the check")
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	rec := newRecorder()
	id := rec.begin("unit", -1, 0)
	rec.end(id)
	var nilRec *recorder
	nilRec.end(nilRec.begin("unit", -1, 0))
	if id != -1 || len(rec.spans) != 0 {
		t.Fatalf("off recorder returned %d and kept %d spans", id, len(rec.spans))
	}
}
