package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts of a parent/change comparison, per end-to-end metric and
// workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges one metric on one workload from the parent's and the
// change's run values:
//
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - unresolved: either side's quartile spread exceeds the bound, unless
//     every change run beats every parent run;
//   - improved: the medians differ by more than the parent's quartile
//     spread in the better direction, and the change wins at least nine in
//     ten pairs (runs paired in file order, ties counting for neither);
//     without pairs, every change run must beat every parent run;
//   - unchanged otherwise.
//
// wins is the paired win rate, or -1 when the sides cannot be paired.
func verdict(parent, change []float64, better string, bound float64) (v string, wins float64) {
	if len(parent) == 0 || len(change) == 0 {
		return unresolved, -1
	}
	lower := better == "lower"
	beats := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	wins = -1
	if len(parent) == len(change) {
		n := 0
		for i := range parent {
			if beats(change[i], parent[i]) {
				n++
			}
		}
		wins = float64(n) / float64(len(parent))
	}
	// Every change run beats every parent run when the change's worst run
	// beats the parent's best.
	worstChange, bestParent := slices.Max(change), slices.Min(parent)
	if !lower {
		worstChange, bestParent = slices.Min(change), slices.Max(parent)
	}
	allBetter := beats(worstChange, bestParent)

	ps, cs := summarize(parent), summarize(change)
	gain := ps.Median - cs.Median // > 0 when the change is better
	if !lower {
		gain = -gain
	}
	switch {
	case -gain > bound*math.Abs(ps.Median):
		return worse, wins
	case (ps.spread() > bound || cs.spread() > bound) && !allBetter:
		return unresolved, wins
	case gain > ps.Q3-ps.Q1 && (allBetter || wins >= 0.9):
		return improved, wins
	}
	return unchanged, wins
}

// readRecords loads the untraced result records of a -out file, keyed by
// workload, in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// runCompare prints one row per workload and end-to-end metric and exits
// non-zero on any regression: a metric worse than its bound, a change run
// that is not correct, or more failed operations than the parent.
func runCompare(sp *spec, parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	regressed := false
	fmt.Fprintf(stdout, "%-14s %-12s %5s %-32s %-32s %8s %6s %5s  %s\n",
		"workload", "metric", "runs", "parent median [q1, q3]", "change median [q1, q3]", "delta", "bound", "wins", "verdict")
	for _, w := range workloadNames {
		p, c := parent[w], change[w]
		if len(p) == 0 || len(c) == 0 {
			if len(p) != len(c) {
				fmt.Fprintf(stdout, "%-14s missing on one side (parent %d runs, change %d)\n", w, len(p), len(c))
				regressed = true
			}
			continue
		}
		var pf, cf int
		for _, r := range p {
			pf += r.Failed
		}
		for _, r := range c {
			cf += r.Failed
			if !r.Correct {
				regressed = true
				fmt.Fprintf(stdout, "%-14s change run seed=%d is not correct (%d of %d failed)\n", w, r.Seed, r.Failed, r.Attempted)
			}
		}
		if cf > pf {
			regressed = true
			fmt.Fprintf(stdout, "%-14s change failed %d operations, parent %d\n", w, cf, pf)
		}
		for _, m := range sp.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			v, wins := verdict(pv, cv, m.Better, *m.Bound)
			ps, cs := summarize(pv), summarize(cv)
			winText := "-"
			if wins >= 0 {
				winText = fmt.Sprintf("%.0f%%", 100*wins)
			}
			fmt.Fprintf(stdout, "%-14s %-12s %2d/%-2d %-32s %-32s %+7.1f%% %5.0f%% %5s  %s\n",
				w, m.Name, len(pv), len(cv),
				fmt.Sprintf("%.5g [%.5g, %.5g]", ps.Median, ps.Q1, ps.Q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", cs.Median, cs.Q1, cs.Q3),
				100*ratio(cs.Median-ps.Median, ps.Median), 100**m.Bound, winText, v)
			regressed = regressed || v == worse
		}
	}
	if regressed {
		fmt.Fprintln(stdout, "regression: the change is worse than the parent beyond the benchmark's bounds")
		return 1
	}
	return 0
}

func values(rs []record, metric string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
