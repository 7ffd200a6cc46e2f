package metricsplane

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"thymesim/internal/sim"
)

// WindowStream performs simulated-time windowed aggregation: bound to
// one kernel, it runs the kernel's collectors (Collect), snapshots the
// registry every window, and emits one NDJSON line per changed series,
// carrying the simulated timestamp and the per-window delta for counters
// and histograms. Because windows ride the kernel's own Ticker, the
// emitted timeline is deterministic for a given run; the writer is
// mutex-protected so several kernels (sweep workers) can share one output
// stream.
type WindowStream struct {
	plane  *Plane
	mu     *sync.Mutex
	w      *bufio.Writer
	enc    *json.Encoder
	window sim.Duration
	last   map[string]float64 // series key -> last value (counters)
	stop   bool
}

// streamMu serializes all WindowStreams targeting the same writer.
var (
	streamWriters   = map[io.Writer]*sync.Mutex{}
	streamWritersMu sync.Mutex
)

func lockFor(w io.Writer) *sync.Mutex {
	streamWritersMu.Lock()
	defer streamWritersMu.Unlock()
	mu, ok := streamWriters[w]
	if !ok {
		mu = &sync.Mutex{}
		streamWriters[w] = mu
	}
	return mu
}

// StreamWindows attaches a windowed NDJSON stream to a kernel. Emission
// starts one window in and continues until Stop or the kernel runs dry.
// Returns nil on a nil plane (disabled).
func (p *Plane) StreamWindows(k *sim.Kernel, window sim.Duration, w io.Writer) *WindowStream {
	if p == nil || window <= 0 {
		return nil
	}
	bw := bufio.NewWriter(w)
	ws := &WindowStream{
		plane:  p,
		mu:     lockFor(w),
		w:      bw,
		enc:    json.NewEncoder(bw),
		window: window,
		last:   make(map[string]float64),
	}
	k.Ticker(window, func() bool {
		if ws.stop {
			return false
		}
		k.Publish()
		ws.emit(k.Now().Micros())
		return true
	})
	return ws
}

// Stop ends emission at the next tick and flushes.
func (ws *WindowStream) Stop() {
	if ws == nil {
		return
	}
	ws.stop = true
	ws.mu.Lock()
	ws.w.Flush()
	ws.mu.Unlock()
}

// emit writes one window: every series whose value changed since the
// previous window, with per-window deltas for monotonic kinds.
func (ws *WindowStream) emit(simTimeUs float64) {
	samples := ws.plane.Snapshot()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for i := range samples {
		s := &samples[i]
		key := seriesKey(s)
		cur := s.Value
		if s.Hist != nil {
			cur = float64(s.Hist.Count)
		}
		prev, seen := ws.last[key]
		if seen && cur == prev {
			continue
		}
		ws.last[key] = cur
		delta := cur - prev
		if s.Kind == KindGauge || !seen {
			delta = cur
		}
		ws.enc.Encode(sampleToNDJSON(s, simTimeUs, delta))
	}
	ws.w.Flush()
}

func seriesKey(s *Sample) string {
	key := s.Name
	for _, p := range s.Labels.pairs() {
		key += "|" + p.Name + "=" + p.Value
	}
	return key
}
