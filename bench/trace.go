package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// span is one interval the harness spent inside a call into a layer.
type span struct {
	Name       string
	Start, End int64 // ns since the recorder's epoch
	Parent     int   // index of the enclosing span, -1 for a root
	Unit       int   // unit index the span belongs to
}

// recorder keeps spans in memory while on and writes them out at exit.
// When off, begin returns -1 and end ignores it, so untraced units pay one
// branch per call site.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent, unit int) int {
	if r == nil || !r.on {
		return -1
	}
	t := r.now()
	r.spans = append(r.spans, span{Name: name, Start: t, End: t, Parent: parent, Unit: unit})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = r.now()
}

// add records a span measured elsewhere, such as an interval cut from a
// child process's timestamped output.
func (r *recorder) add(name string, start, end time.Time, parent, unit int) int {
	if r == nil || !r.on {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		Parent: parent, Unit: unit,
	})
	return len(r.spans) - 1
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part its direct children cover.
func (r *recorder) selfTimes() map[string]float64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// totals returns, per span name, the summed duration in seconds.
func (r *recorder) totals() map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// durations returns the durations in seconds of every span named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChrome writes the spans as Chrome trace JSON (load it in
// chrome://tracing or Perfetto). Timestamps are microseconds.
func (r *recorder) writeChrome(w io.Writer) error {
	tr := chromeTrace{TraceEvents: make([]chromeEvent, len(r.spans)), DisplayTimeUnit: "ns"}
	for i, s := range r.spans {
		tr.TraceEvents[i] = chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "unit": s.Unit},
		}
	}
	return json.NewEncoder(w).Encode(tr)
}

// writeChromeFile writes the trace to path.
func (r *recorder) writeChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := r.writeChrome(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// checkChrome parses a Chrome trace and checks that every event is a
// complete event with a non-negative duration lying inside its parent.
func checkChrome(rd io.Reader) (int, error) {
	var tr chromeTrace
	if err := json.NewDecoder(rd).Decode(&tr); err != nil {
		return 0, fmt.Errorf("chrome trace: %w", err)
	}
	for i, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Name == "" {
			return 0, fmt.Errorf("chrome trace: event %d malformed: %+v", i, e)
		}
		p, ok := e.Args["parent"]
		if !ok || p >= i {
			return 0, fmt.Errorf("chrome trace: event %d has parent %d", i, p)
		}
		if p >= 0 {
			pe := tr.TraceEvents[p]
			const slack = 1e-3 // µs; timestamps are rounded to ns
			if e.Ts < pe.Ts-slack || e.Ts+e.Dur > pe.Ts+pe.Dur+slack {
				return 0, fmt.Errorf("chrome trace: event %d (%s) escapes parent %d (%s)", i, e.Name, p, pe.Name)
			}
		}
	}
	return len(tr.TraceEvents), nil
}
