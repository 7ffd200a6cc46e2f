package core

import (
	"fmt"
	"io"

	"thymesim/internal/metrics"
	"thymesim/internal/obs"
	"thymesim/internal/sweep"
)

// BreakdownPoint is one PERIOD's per-stage latency decomposition.
type BreakdownPoint struct {
	Period int64
	// FillLatUs is the STREAM-reported mean fill latency (the fig2 value).
	FillLatUs float64
	// EndToEndUs is the tracer's mean end-to-end span latency; the stage
	// means in Rows sum to it exactly.
	EndToEndUs float64
	P99Us      float64
	Spans      uint64
	Rows       []obs.BreakdownRow
}

// StageBreakdown is the Table-I-style critical-path decomposition across
// the fig2 PERIOD sweep: where each microsecond of a remote line fill is
// spent, per injector setting.
type StageBreakdown struct {
	Points []BreakdownPoint
	Table  *metrics.Table
	// Tracer is the first period's tracer, retained so the caller can
	// export its raw spans as a Chrome trace.
	Tracer *obs.Tracer
}

// RunLatencyBreakdown runs the STREAM remote workload at each PERIOD with
// span tracing enabled and decomposes the mean fill latency into datapath
// stages. sample traces every Nth fill (<=1 traces all). Tracing is
// observation-only, so the runs produce the same timing as the untraced
// fig2 sweep; the decomposition's end_to_end row must match fig2's
// latency at the same PERIOD.
func (o Options) RunLatencyBreakdown(periods []int64, sample int) *StageBreakdown {
	sb := &StageBreakdown{Table: &metrics.Table{
		Title:   "Table I (simulated): per-stage decomposition of a remote line fill",
		Columns: []string{"PERIOD", "stage", "count", "mean (us)", "p99 (us)", "share (%)"},
	}}
	type traced struct {
		pt BreakdownPoint
		tr *obs.Tracer
	}
	runs := sweep.Map(o.Workers, len(periods), nil, func(i int) traced {
		period := periods[i]
		tb := o.Testbed(period)
		tr := tb.EnableTracing(obs.Config{Sample: sample})
		m := o.runStream(tb, tb.NewRemoteHierarchy(), tb.RemoteAddr(0))
		return traced{
			pt: BreakdownPoint{
				Period:     period,
				FillLatUs:  m.FillLatUs,
				EndToEndUs: tr.EndToEndMeanUs(),
				P99Us:      tr.EndToEnd().Quantile(0.99),
				Spans:      tr.Finished(),
				Rows:       tr.Breakdown(),
			},
			tr: tr,
		}
	})
	for i, period := range periods {
		pt := runs[i].pt
		sb.Points = append(sb.Points, pt)
		for _, r := range pt.Rows {
			sb.Table.AddRow(fmt.Sprintf("%d", period), r.Stage.String(),
				fmt.Sprintf("%d", r.Count),
				fmt.Sprintf("%.4f", r.MeanUs),
				fmt.Sprintf("%.4f", r.P99Us),
				fmt.Sprintf("%.1f", r.SharePct))
		}
		sb.Table.AddRow(fmt.Sprintf("%d", period), "end_to_end",
			fmt.Sprintf("%d", pt.Spans),
			fmt.Sprintf("%.4f", pt.EndToEndUs),
			fmt.Sprintf("%.4f", pt.P99Us),
			"100.0")
		if i == 0 {
			sb.Tracer = runs[i].tr
		}
	}
	return sb
}

// WriteCSV emits the decomposition as tidy machine-readable rows. The
// end_to_end row per PERIOD is the sum of that PERIOD's stage mean_us
// column (and matches fig2_latency.csv at the same PERIOD).
func (sb *StageBreakdown) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "period,stage,count,mean_us,p99_us,share_pct"); err != nil {
		return err
	}
	for _, pt := range sb.Points {
		for _, r := range pt.Rows {
			if _, err := fmt.Fprintf(w, "%d,%s,%d,%g,%g,%g\n",
				pt.Period, r.Stage, r.Count, r.MeanUs, r.P99Us, r.SharePct); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%d,end_to_end,%d,%g,%g,100\n",
			pt.Period, pt.Spans, pt.EndToEndUs, pt.P99Us); err != nil {
			return err
		}
	}
	return nil
}

// StreamRemoteTraced is StreamRemote with span tracing enabled; it
// returns the run's tracer alongside the measurement.
func (o Options) StreamRemoteTraced(period int64, cfg obs.Config) (StreamMeasurement, *obs.Tracer) {
	tb := o.Testbed(period)
	tr := tb.EnableTracing(cfg)
	return o.runStream(tb, tb.NewRemoteHierarchy(), tb.RemoteAddr(0)), tr
}

// GraphRemoteTraced is GraphRemote with span tracing enabled.
func (o Options) GraphRemoteTraced(period int64, cfg obs.Config) (GraphMeasurement, *obs.Tracer) {
	tb := o.Testbed(period)
	tr := tb.EnableTracing(cfg)
	return o.runGraph(tb, tb.NewRemoteHierarchy(), tb.RemoteAddr(0)), tr
}

// KVRemoteTraced is KVRemote with span tracing enabled.
func (o Options) KVRemoteTraced(period int64, cfg obs.Config) (KVMeasurement, *obs.Tracer) {
	tb := o.Testbed(period)
	tr := tb.EnableTracing(cfg)
	return o.runKV(tb, tb.NewRemoteHierarchy(), tb.RemoteAddr(0)), tr
}
