package main

import (
	"bytes"
	"os"
	"testing"
)

// TestChaosOutputGolden byte-compares the report of `chaos -failover
// -schedule -pool` against the committed one. Every campaign is seeded,
// so unchanged code reproduces it exactly; the counters in it (retries,
// poisoned fills, breaker trips) move with any change to datapath timing
// or buffering, including ones that leave every results/ CSV alone.
// After a deliberate change, regenerate it with
//
//	go run ./cmd/chaos -failover -schedule -pool > cmd/chaos/testdata/failover_schedule_pool.txt
func TestChaosOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/failover_schedule_pool.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, []string{"-failover", "-schedule", "-pool"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("chaos output differs from testdata/failover_schedule_pool.txt:\n--- got\n%s\n--- want\n%s", got.Bytes(), want)
	}
}
