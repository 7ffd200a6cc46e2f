package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const hdr = "report\n======\n\n"

// compareResults checks every committed file byte for byte: CSVs against
// the regenerated directory, report.txt against the per-experiment
// reports.
func TestCompareResults(t *testing.T) {
	committed := map[string]string{"a.csv": "x,1\n", "b.csv": "y,2\n", reportFile: hdr + "Alpha\n\nBeta\n\n"}
	reports := [][]byte{[]byte(hdr + "Alpha\n\n"), []byte(hdr + "Beta\n\n")}
	cases := []struct {
		name      string
		produced  map[string]string
		reports   [][]byte
		attempted int
		bad       []string
	}{
		{"identical", map[string]string{"a.csv": "x,1\n", "b.csv": "y,2\n"}, reports, 3, nil},
		{"changed csv", map[string]string{"a.csv": "x,1\n", "b.csv": "y,3\n"}, reports, 3, []string{"b.csv"}},
		{"changed report", map[string]string{"a.csv": "x,1\n", "b.csv": "y,2\n"},
			[][]byte{[]byte(hdr + "Alpha\n\n"), []byte(hdr + "Beta!\n\n")}, 3, []string{reportFile}},
		{"missing csv", map[string]string{"a.csv": "x,1\n"}, reports, 3, []string{"b.csv (missing)"}},
		{"uncommitted csv", map[string]string{"a.csv": "x,1\n", "b.csv": "y,2\n", "c.csv": "z\n"}, reports, 4, []string{"c.csv (not committed)"}},
	}
	for _, c := range cases {
		results, out := t.TempDir(), t.TempDir()
		writeFiles(t, results, committed)
		writeFiles(t, out, c.produced)
		attempted, bad, err := compareResults(results, out, c.reports)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if attempted != c.attempted || !slices.Equal(bad, c.bad) {
			t.Errorf("%s: attempted %d bad %v, want %d %v", c.name, attempted, bad, c.attempted, c.bad)
		}
	}
	if _, _, err := compareResults(t.TempDir(), t.TempDir(), reports); err == nil {
		t.Error("empty results directory accepted")
	}
}

func TestReportMatches(t *testing.T) {
	parts := [][]byte{[]byte(hdr + "A1\n"), []byte(hdr + "B22\n"), []byte(hdr + "C333\n")}
	for _, c := range []struct {
		name      string
		committed string
		want      bool
	}{
		{"in order", hdr + "A1\nB22\nC333\n", true},
		{"report order differs from run order", hdr + "A1\nC333\nB22\n", true},
		{"section missing", hdr + "A1\nB22\n", false},
		{"section twice", hdr + "A1\nB22\nC333\nA1\n", false},
		{"trailing bytes", hdr + "A1\nB22\nC333\n\n", false},
		{"header differs", "REPORT\n" + "A1\nB22\nC333\n", false},
	} {
		if got := reportMatches([]byte(c.committed), parts); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
	if !reportMatches([]byte(hdr+"A1\n"), parts[:1]) || reportMatches(nil, nil) {
		t.Error("single report must match itself and no report nothing")
	}
}

// The committed results/ directory is what regen-results compares against:
// it must hold the report and the CSVs.
func TestCommittedResultsPresent(t *testing.T) {
	entries, err := os.ReadDir("../results")
	if err != nil {
		t.Fatal(err)
	}
	csvs, report := 0, false
	for _, e := range entries {
		switch {
		case e.Name() == reportFile:
			report = true
		case filepath.Ext(e.Name()) == ".csv":
			csvs++
		}
	}
	if !report || csvs == 0 {
		t.Fatalf("results/ has %d CSVs, report %v", csvs, report)
	}
}
