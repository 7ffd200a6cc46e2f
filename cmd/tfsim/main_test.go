package main

import (
	"strings"
	"testing"

	"thymesim/internal/core"
)

// TestBuildOptions covers the count-flag mapping: zero keeps the default,
// a positive count overrides it, and a negative count is rejected by name,
// as is a trace sampling stride below 1.
func TestBuildOptions(t *testing.T) {
	def := core.Default()
	for _, tc := range []struct {
		name                      string
		elements, scale, requests int
		sample                    int
		wantErr                   string
		check                     func(core.Options) bool
	}{
		{name: "defaults", sample: 1, check: func(o core.Options) bool {
			return o.StreamElements == def.StreamElements && o.GraphScale == def.GraphScale && o.KVRequests == def.KVRequests
		}},
		{name: "elements", elements: 4096, sample: 1, check: func(o core.Options) bool { return o.StreamElements == 4096 }},
		{name: "scale", scale: 8, sample: 1, check: func(o core.Options) bool { return o.GraphScale == 8 }},
		{name: "requests", requests: 50, sample: 1, check: func(o core.Options) bool { return o.KVRequests == 50 }},
		{name: "sampled trace", sample: 16, check: func(o core.Options) bool { return o.StreamElements == def.StreamElements }},
		{name: "negative elements", elements: -1, sample: 1, wantErr: "-elements"},
		{name: "negative scale", scale: -3, sample: 1, wantErr: "-scale"},
		{name: "negative requests", requests: -1, sample: 1, wantErr: "-requests"},
		{name: "zero trace sample", sample: 0, wantErr: "-trace-sample"},
		{name: "negative trace sample", sample: -2, wantErr: "-trace-sample"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := buildOptions(7, tc.elements, tc.scale, tc.requests, tc.sample)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if o.Seed != 7 || !tc.check(o) {
				t.Fatalf("options = %+v", o)
			}
		})
	}
}
