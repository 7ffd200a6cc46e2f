package main

import (
	"strings"
	"testing"

	"thymesim/internal/core"
)

// TestBuildOptions covers the count-flag mapping: zero keeps the default,
// a positive count overrides it, and a negative count is rejected by name.
func TestBuildOptions(t *testing.T) {
	def := core.Default()
	for _, tc := range []struct {
		name                      string
		elements, scale, requests int
		wantErr                   string
		check                     func(core.Options) bool
	}{
		{name: "defaults", check: func(o core.Options) bool {
			return o.StreamElements == def.StreamElements && o.GraphScale == def.GraphScale && o.KVRequests == def.KVRequests
		}},
		{name: "elements", elements: 4096, check: func(o core.Options) bool { return o.StreamElements == 4096 }},
		{name: "scale", scale: 8, check: func(o core.Options) bool { return o.GraphScale == 8 }},
		{name: "requests", requests: 50, check: func(o core.Options) bool { return o.KVRequests == 50 }},
		{name: "negative elements", elements: -1, wantErr: "-elements"},
		{name: "negative scale", scale: -3, wantErr: "-scale"},
		{name: "negative requests", requests: -1, wantErr: "-requests"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := buildOptions(7, tc.elements, tc.scale, tc.requests)
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
