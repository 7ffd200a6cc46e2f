package main

import (
	"strings"
	"testing"

	"thymesim/internal/core"
)

// TestBuildOptions covers -elements: zero keeps the default, a positive
// count overrides it, and a negative count is rejected by name.
func TestBuildOptions(t *testing.T) {
	def := core.Default().StreamElements
	for _, tc := range []struct {
		name     string
		elements int
		want     int
		wantErr  string
	}{
		{name: "default", elements: 0, want: def},
		{name: "override", elements: 4096, want: 4096},
		{name: "negative", elements: -5, wantErr: "-elements"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := buildOptions(tc.elements)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if o.StreamElements != tc.want {
				t.Fatalf("StreamElements = %d, want %d", o.StreamElements, tc.want)
			}
		})
	}
}
