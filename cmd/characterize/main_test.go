package main

import (
	"strings"
	"testing"
)

// TestCheckFlags covers the up-front flag validation: every rejected
// combination names its flag, and the accepted ones pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name              string
		experiment, trace string
		sample            int
		serve, metricsOut string
		wantErr           string
	}{
		{name: "defaults", experiment: "all", sample: 1},
		{name: "trace with all", experiment: "all", trace: "t.json", sample: 4},
		{name: "trace with breakdown", experiment: "breakdown", trace: "t.json", sample: 1},
		{name: "metrics with serve", experiment: "pool", sample: 1, serve: "127.0.0.1:0", metricsOut: "m.prom"},
		{name: "unknown experiment", experiment: "fig9", sample: 1, wantErr: "unknown experiment"},
		{name: "trace without breakdown", experiment: "fig5", trace: "t.json", sample: 1, wantErr: "-trace"},
		{name: "zero sample", experiment: "breakdown", sample: 0, wantErr: "-trace-sample"},
		{name: "negative sample", experiment: "all", sample: -3, wantErr: "-trace-sample"},
		{name: "metrics without serve", experiment: "all", sample: 1, metricsOut: "m.prom", wantErr: "-metrics-out"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.experiment, tc.trace, tc.sample, tc.serve, tc.metricsOut)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one naming %s", err, tc.wantErr)
			}
		})
	}
}
