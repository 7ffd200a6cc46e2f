package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"thymesim/internal/core"
)

// fastGolden names the experiments that regenerate in a few seconds
// together, and the CSV files they write under results/. chaos and
// schedule cover the fault-injection kernels (ARQ timers, supervisor
// heartbeats, breaker dwells), where a reordered event shifts counters.
// validation and breakdown cover the link: a shifted wire time moves the
// Fig. 2/3 latency and bandwidth, and a misplaced link-stage stamp moves
// Table I's breakdown. recovery holds the NIC's injector shut through
// link outages, the one experiment whose egress queues back up, so it
// catches a change in how much the NIC buffers upstream of the injector.
var fastGolden = map[string][]string{
	"validation":   {"fig2_latency.csv", "fig3_bandwidth.csv", "fig3_bdp.csv"},
	"breakdown":    {"table1_breakdown.csv"},
	"resilience":   {"fig4_attach.csv", "fig4_resilience.csv"},
	"dists":        {"ablation_dists.csv", "ablation_dists_table.csv"},
	"qos":          {"ablation_qos.csv"},
	"migration":    {"ablation_migration.csv"},
	"interconnect": {"ablation_interconnect.csv"},
	"prefetch":     {"ablation_prefetch.csv"},
	"chaos":        {"chaos_table.csv", "chaos_counters.csv"},
	"schedule":     {"chaos_schedule_table.csv", "chaos_schedule_campaign.csv"},
	"recovery":     {"fig_resilience_recovery.csv"},
}

// TestGoldenFastSubset regenerates the fast experiments in-process, with
// characterize's defaults and its own CSV writer, and byte-compares every
// CSV they write with the committed results/. It runs under -short too,
// so the plain test suite catches a change in dispatch order that the
// full `make golden` regeneration would.
func TestGoldenFastSubset(t *testing.T) {
	opts := core.Default()
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}
	var ran []string
	rep, err := runExperiments(opts,
		func(name string) bool { _, ok := fastGolden[name]; return ok },
		func(name string, fn func()) { ran = append(ran, name); fn() }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != len(fastGolden) {
		t.Fatalf("ran %d experiments (%v), want %d", len(ran), ran, len(fastGolden))
	}
	dir := t.TempDir()
	if err := rep.WriteCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, files := range fastGolden {
		want = append(want, files...)
	}
	slices.Sort(want)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("wrote %v, want %v", got, want)
	}
	for _, name := range want {
		regen, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(regen, golden) {
			t.Errorf("%s differs from results/%s:\n--- regenerated\n%s--- committed\n%s", name, name, regen, golden)
		}
	}
}
