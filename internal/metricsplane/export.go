package metricsplane

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
)

// ndjsonSample is the wire form of one series line in NDJSON export.
type ndjsonSample struct {
	Metric string            `json:"metric"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	// Histogram-only fields.
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	P50     float64   `json:"p50,omitempty"`
	P99     float64   `json:"p99,omitempty"`
	// Optional simulated-time stamp (window streaming).
	SimTimeUs float64 `json:"sim_time_us,omitempty"`
	// Optional per-window delta for counters (window streaming).
	Delta float64 `json:"delta,omitempty"`
}

// WriteNDJSON renders one JSON object per series line. Histograms carry
// their full bucket vector (finite bounds; the last bucket is the +Inf
// overflow) plus derived p50/p99.
func WriteNDJSON(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range samples {
		if err := enc.Encode(sampleToNDJSON(&samples[i], 0, math.NaN())); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func sampleToNDJSON(s *Sample, simTimeUs float64, delta float64) *ndjsonSample {
	out := &ndjsonSample{
		Metric:    s.Name,
		Type:      s.Kind.String(),
		Value:     s.Value,
		SimTimeUs: simTimeUs,
	}
	if !math.IsNaN(delta) {
		out.Delta = delta
	}
	pairs := s.Labels.pairs()
	if len(pairs) > 0 {
		out.Labels = make(map[string]string, len(pairs))
		for _, p := range pairs {
			out.Labels[p.Name] = p.Value
		}
	}
	if s.Hist != nil {
		out.Count = s.Hist.Count
		out.Sum = s.Hist.Sum
		out.Value = float64(s.Hist.Count)
		n := len(s.Hist.Bounds)
		if n > 0 {
			out.Bounds = s.Hist.Bounds[:n-1] // drop +Inf: implied overflow
		}
		out.Buckets = s.Hist.Counts
		out.P50 = histQuantile(s.Hist, 0.50)
		out.P99 = histQuantile(s.Hist, 0.99)
	}
	return out
}

// histQuantile estimates a quantile from a snapshot (mirror of
// Histogram.Quantile over copied buckets).
func histQuantile(h *HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + float64(rank-cum)/float64(c)*(hi-lo)
		}
		cum += c
	}
	return 0
}
