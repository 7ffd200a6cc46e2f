package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"thymesim/internal/metrics"
)

// Report aggregates one full characterization run.
type Report struct {
	Options    Options
	Validation *DelayValidation
	Resilience *Resilience
	Table1     *Table1
	Fig5       *AppDegradation
	MCBN       *Contention
	MCLN       *Contention
	Pool       *Contention
	PoolCont   *PoolContention
	Dists      *DistImpact
	QoS        *QoSResult
	Migration  *MigrationResult
	Xconnect   *InterconnectResult
	Prefetch   *PrefetchResult
	Recovery   *ResilienceRecovery
	Chaos      *ChaosReport
	Schedule   *ChaosScheduleReport
	BreakerRec *BreakerRecovery
	Breakdown  *StageBreakdown
}

// figures returns every figure with a stable file stem.
func (r *Report) figures() map[string]*metrics.Figure {
	out := map[string]*metrics.Figure{}
	if r.Validation != nil {
		out["fig2_latency"] = r.Validation.Latency
		out["fig3_bandwidth"] = r.Validation.Bandwidth
		out["fig3_bdp"] = r.Validation.BDP
	}
	if r.Resilience != nil {
		out["fig4_resilience"] = r.Resilience.Figure
	}
	if r.Fig5 != nil {
		out["fig5_degradation"] = r.Fig5.Figure
	}
	if r.MCBN != nil {
		out["fig6_mcbn"] = r.MCBN.Figure
	}
	if r.MCLN != nil {
		out["fig7_mcln"] = r.MCLN.Figure
	}
	if r.Pool != nil {
		out["ablation_pool"] = r.Pool.Figure
	}
	if r.PoolCont != nil {
		out["fig_pool_contention"] = r.PoolCont.Figure
	}
	if r.Dists != nil {
		out["ablation_dists"] = r.Dists.Figure
	}
	return out
}

// WriteCSVDir writes every figure and table as CSV files under dir.
func (r *Report) WriteCSVDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	for stem, fig := range r.figures() {
		fig := fig
		if err := write(stem+".csv", fig.WriteCSV); err != nil {
			return err
		}
	}
	if r.Table1 != nil {
		if err := write("table1.csv", r.Table1.Table.WriteCSV); err != nil {
			return err
		}
	}
	if r.Dists != nil {
		if err := write("ablation_dists_table.csv", r.Dists.Table.WriteCSV); err != nil {
			return err
		}
	}
	if r.QoS != nil {
		if err := write("ablation_qos.csv", r.QoS.Table.WriteCSV); err != nil {
			return err
		}
	}
	if r.Migration != nil {
		if err := write("ablation_migration.csv", r.Migration.Table.WriteCSV); err != nil {
			return err
		}
	}
	if r.Xconnect != nil {
		if err := write("ablation_interconnect.csv", r.Xconnect.Table.WriteCSV); err != nil {
			return err
		}
	}
	if r.Prefetch != nil {
		if err := write("ablation_prefetch.csv", r.Prefetch.Table.WriteCSV); err != nil {
			return err
		}
	}
	if r.Resilience != nil {
		err := write("fig4_attach.csv", func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "period,attach_ok,latency_us,reason"); err != nil {
				return err
			}
			for _, p := range r.Resilience.Points {
				if _, err := fmt.Fprintf(w, "%d,%t,%g,%s\n", p.Period, p.AttachOK, p.LatencyUs, strings.ReplaceAll(p.AttachReason, ",", ";")); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if r.Recovery != nil {
		err := write("fig_resilience_recovery.csv", func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "scenario,level,bandwidth_gbs,mean_recovery_us,retransmits,dead,poisoned,downs,recoveries"); err != nil {
				return err
			}
			row := func(p RecoveryPoint) error {
				_, err := fmt.Fprintf(w, "%s,%g,%g,%g,%d,%d,%d,%d,%d\n",
					p.Scenario, p.Level, p.BandwidthGBs, p.MeanRecoveryUs,
					p.Retransmits, p.Dead, p.Poisoned, p.Downs, p.Recoveries)
				return err
			}
			if err := row(r.Recovery.Baseline); err != nil {
				return err
			}
			for _, p := range r.Recovery.Points {
				if err := row(p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if r.Chaos != nil {
		if err := write("chaos_table.csv", r.Chaos.Table.WriteCSV); err != nil {
			return err
		}
		if err := write("chaos_counters.csv", r.Chaos.Counters.WriteCSV); err != nil {
			return err
		}
	}
	if r.Schedule != nil {
		if err := write("chaos_schedule_table.csv", r.Schedule.Events.WriteCSV); err != nil {
			return err
		}
		if err := write("chaos_schedule_campaign.csv", r.Schedule.Table.WriteCSV); err != nil {
			return err
		}
	}
	if r.BreakerRec != nil {
		err := write("fig_breaker_recovery.csv", func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "outage_us,wipe,completed,trip_us,recovery_us,expired,poisoned,short_circuited,localized,trips,reopens,violations"); err != nil {
				return err
			}
			for _, p := range r.BreakerRec.Points {
				if _, err := fmt.Fprintf(w, "%g,%t,%t,%g,%g,%d,%d,%d,%d,%d,%d,%d\n",
					p.OutageUs, p.Wipe, p.Completed, p.TripUs, p.RecoveryUs,
					p.Expired, p.Poisoned, p.ShortCircuited, p.GateLocalized,
					p.Trips, p.Reopens, p.Violations); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if r.Breakdown != nil {
		if err := write("table1_breakdown.csv", r.Breakdown.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// Render writes a human-readable summary of every experiment.
func (r *Report) Render(w io.Writer) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	p("thymesim characterization report\n")
	p("================================\n\n")
	if v := r.Validation; v != nil {
		p("Delay-injection validation (Figs. 2-3)\n")
		p("  latency(PERIOD) linear fit: %.4g us/period + %.4g us, r^2 = %.4f\n", v.Slope, v.Intercept, v.R2)
		if lo, hi, ok := boundsY(v.BDP); ok {
			p("  BDP across sweep: %.3g - %.3g kB (paper: ~16.5 kB, constant)\n", lo, hi)
		}
		p("\n")
		for _, fig := range []*metrics.Figure{v.Latency, v.Bandwidth, v.BDP} {
			if err := fig.RenderASCII(w, 60, 12); err != nil {
				return err
			}
			p("\n")
		}
	}
	if res := r.Resilience; res != nil {
		p("Resilience assessment (Fig. 4)\n")
		for _, pt := range res.Points {
			status := "functional"
			detail := fmt.Sprintf("latency %.4g us", pt.LatencyUs)
			if pt.Crashed {
				status = "FAILED"
				detail = pt.AttachReason
			}
			p("  PERIOD=%-6d %-10s %s\n", pt.Period, status, detail)
		}
		p("\n")
		if err := res.Figure.RenderASCII(w, 60, 10); err != nil {
			return err
		}
		p("\n")
	}
	if r.Table1 != nil {
		if err := r.Table1.Table.Render(w); err != nil {
			return err
		}
		p("  (paper: Redis 1.01x/1.73x, BFS 6x/2209x, SSSP 5.3x/1800x)\n\n")
	}
	if r.Fig5 != nil {
		if err := r.Fig5.Figure.RenderASCII(w, 60, 12); err != nil {
			return err
		}
		p("\n")
	}
	for _, c := range []*Contention{r.MCBN, r.MCLN, r.Pool} {
		if c == nil {
			continue
		}
		if err := c.Figure.RenderASCII(w, 60, 10); err != nil {
			return err
		}
		for i, n := range c.Counts {
			p("  n=%d: %.3f GB/s\n", n, c.BorrowerBps[i]/1e9)
		}
		p("\n")
	}
	if pc := r.PoolCont; pc != nil {
		if err := pc.Figure.RenderASCII(w, 60, 10); err != nil {
			return err
		}
		for pi, name := range pc.Policies {
			p("  %-12s:", name)
			for ci, n := range pc.Counts {
				p(" n=%d %.3f GB/s", n, pc.Bps[pi][ci]/1e9)
			}
			p("\n")
		}
		p("\n")
	}
	if r.Dists != nil {
		if err := r.Dists.Table.Render(w); err != nil {
			return err
		}
		p("\n")
	}
	if r.QoS != nil {
		if err := r.QoS.Table.Render(w); err != nil {
			return err
		}
		p("  (sensitive flow protected %.1fx at %.0f%% bulk cost)\n\n",
			r.QoS.ChaseFIFOUs/r.QoS.ChasePrioUs,
			100*(1-r.QoS.BulkPrioBps/r.QoS.BulkFIFOBps))
	}
	if r.Migration != nil {
		if err := r.Migration.Table.Render(w); err != nil {
			return err
		}
		p("  (%d pages promoted, %d lines copied, %.1fx per-hop improvement)\n\n",
			r.Migration.Promotions, r.Migration.CopiedLines,
			r.Migration.NoMigrationUs/r.Migration.WithMigrationUs)
	}
	if r.Xconnect != nil {
		if err := r.Xconnect.Table.Render(w); err != nil {
			return err
		}
		p("\n")
	}
	if r.Prefetch != nil {
		if err := r.Prefetch.Table.Render(w); err != nil {
			return err
		}
		p("  (prefetching hides the base RTT %.1fx but cannot beat the injector's release rate)\n\n",
			r.Prefetch.OffVanillaUs/r.Prefetch.OnVanillaUs)
	}
	if rec := r.Recovery; rec != nil {
		p("Link-fault resilience & recovery (fig_resilience_recovery)\n")
		p("  baseline: %.3f GB/s fault-free\n", rec.Baseline.BandwidthGBs)
		for _, pt := range rec.Points {
			p("  %-5s level=%-8g %.3f GB/s  retrans=%-5d dead=%-3d downs=%-2d mean recovery %.4g us\n",
				pt.Scenario, pt.Level, pt.BandwidthGBs, pt.Retransmits, pt.Dead, pt.Downs, pt.MeanRecoveryUs)
		}
		for _, pt := range append([]RecoveryPoint{rec.Baseline}, rec.Points...) {
			for _, v := range pt.Violations {
				p("  VIOLATION %s level=%g: %s\n", pt.Scenario, pt.Level, v)
			}
		}
		p("\n")
		if err := rec.Figure.RenderASCII(w, 60, 10); err != nil {
			return err
		}
		p("\n")
	}
	if b := r.Breakdown; b != nil {
		if err := b.Table.Render(w); err != nil {
			return err
		}
		for _, pt := range b.Points {
			p("  PERIOD=%-6d spans=%-8d stages sum to %.4f us (STREAM fill %.4f us)\n",
				pt.Period, pt.Spans, pt.EndToEndUs, pt.FillLatUs)
		}
		p("\n")
	}
	if c := r.Chaos; c != nil {
		if err := c.Table.Render(w); err != nil {
			return err
		}
		status := "all invariants held"
		if !c.OK() {
			status = "INVARIANT VIOLATIONS — see table"
		}
		p("  (%s)\n\n", status)
		if err := c.Counters.Render(w); err != nil {
			return err
		}
		p("\n")
	}
	if s := r.Schedule; s != nil {
		if err := s.Events.Render(w); err != nil {
			return err
		}
		if err := s.Table.Render(w); err != nil {
			return err
		}
		status := "all invariants held"
		if !s.OK() {
			status = "INVARIANT VIOLATIONS — see table"
		}
		p("  (%s; breaker ended %s after %d transitions)\n\n",
			status, s.Result.FinalBreaker, len(s.Result.Transitions))
	}
	if br := r.BreakerRec; br != nil {
		p("Breaker recovery vs lender outage (fig_breaker_recovery)\n")
		for _, pt := range br.Points {
			p("  outage=%-6gus wipe=%-5t trip %.4g us, re-promotion %.4g us (%d expired, %d localized)\n",
				pt.OutageUs, pt.Wipe, pt.TripUs, pt.RecoveryUs, pt.Expired, pt.GateLocalized)
		}
		p("\n")
		if err := br.Figure.RenderASCII(w, 60, 10); err != nil {
			return err
		}
		p("\n")
	}
	return nil
}

func boundsY(f *metrics.Figure) (lo, hi float64, ok bool) {
	if len(f.Series) == 0 {
		return 0, 0, false
	}
	return f.Series[0].MinMaxY()
}
