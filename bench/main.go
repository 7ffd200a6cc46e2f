// Command bench is ThymeSim's benchmark: host cost and correctness of the
// simulator on four workloads, each run in its own child process.
//
//	stream-remote  STREAM against remote memory, MSHR window always full
//	kv-remote      memtier closed loop on a Redis-like store in remote memory
//	rack-churn     48x16 pool under ARQ, crashes and region churn, audited
//	regen-results  characterize -out, byte-compared against results/
//
// Run a set from the bench directory (or the repository root with
// sh bench/run.sh):
//
//	go run . -workload all -seed 1
//	go run . -workload rack-churn -trace 1     # per-layer metrics + Chrome trace
//	go run . -out change.jsonl                 # append result records
//	go run . -compare parent.jsonl change.jsonl
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. See README.md for every metric.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything the benchmark builds or writes, under the
// repository root.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = fs.Uint64("seed", 1, "seed the inputs are generated from (regen-results uses characterize's fixed seed)")
		seconds  = fs.Float64("seconds", 20, "how long each workload measures, in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		traceOut = fs.String("trace-out", "", "Chrome trace file of a traced run (default "+buildDir+"/trace-<workload>-<seed>.json)")
		out      = fs.String("out", "", "append one JSON result record per workload to this file")
		compare  = fs.String("compare", "", "parent record file; the change's file follows as an argument")
		child    = fs.String("child", "", "run one workload in this process and report to the parent harness")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds) {
		return fail(fmt.Errorf("-seconds %v: want a positive number", *seconds))
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	if *child != "" {
		return runChild(*child, root, *seed, *seconds, *trace == 1, *traceOut, stdout, stderr)
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return fail(errors.New("-compare parent.jsonl change.jsonl: want exactly one change file"))
		}
		return runCompare(sp, *compare, fs.Arg(0), stdout, stderr)
	}

	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			return fail(fmt.Errorf("unknown workload %q (choose %s or all)", *workload, strings.Join(workloadNames, ", ")))
		}
		names = []string{*workload}
	}
	if *traceOut != "" && len(names) > 1 {
		return fail(errors.New("-trace-out names one file: use it with a single -workload"))
	}
	if slices.Contains(names, wRegen) {
		if err := buildCharacterize(root, stderr); err != nil {
			return fail(fmt.Errorf("build characterize: %w", err))
		}
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	host := readHost(root)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		tf := *traceOut
		if tf == "" {
			tf = filepath.Join(root, buildDir, fmt.Sprintf("trace-%s-%d.json", name, *seed))
		}
		rep, err := spawn(self, name, *seed, *seconds, *trace, tf, stderr)
		if err != nil {
			return fail(err)
		}
		res := toResult(rep, defs)
		printReport(stdout, host, *seed, *trace, rep, res, defs)
		if *trace == 1 {
			fmt.Fprintf(stdout, "# %s chrome trace: %s\n", name, tf)
		}
		if *out != "" {
			rec := record{result: res, Workload: name, Seed: *seed, Trace: *trace, Host: host,
				GOMAXPROCS: rep.GOMAXPROCS, Units: rep.Units, P90Resolved: rep.P90Resolved,
				Digest: rep.Digest, Summaries: rep.Summaries, Time: time.Now().UTC().Format(time.RFC3339)}
			if err := appendRecord(*out, rec); err != nil {
				return fail(err)
			}
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+":"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// findRoot locates the repository root: the working directory or its
// parent, whichever holds BENCHMARK.json, go.mod and results/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 2; i++ {
		if isRoot(dir) {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("run from the repository root or bench/: found no BENCHMARK.json beside go.mod and results/")
}

func isRoot(dir string) bool {
	for _, name := range []string{"BENCHMARK.json", "go.mod", "results"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			return false
		}
	}
	return true
}

// buildCharacterize builds cmd/characterize into the build directory
// (untimed; a cached build is a no-op).
func buildCharacterize(root string, stderr io.Writer) error {
	cmd := exec.Command("go", "build", "-o", characterizeBin(root), "./cmd/characterize")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = stderr, stderr
	return cmd.Run()
}

func characterizeBin(root string) string { return filepath.Join(root, buildDir, "characterize") }

// childTimeout bounds a workload child beyond its measuring time.
const childTimeout = 150 * time.Second

// spawn re-executes the harness as one workload's child. The simulated
// workloads run at GOMAXPROCS=1; regen-results gets every CPU, which it
// hands to characterize -j. The parent only waits, so the process tree
// never has more busy threads than CPUs.
func spawn(self, name string, seed uint64, seconds float64, trace int, traceOut string, stderr io.Writer) (*childReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-trace-out", traceOut)
	procs := 1
	if name == wRegen {
		procs = runtime.NumCPU()
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", name, err)
	}
	var rep childReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s child report: %w", name, err)
	}
	return &rep, nil
}

// runChild runs one workload in this process and writes its report.
func runChild(name, root string, seed uint64, seconds float64, trace bool, traceOut string, stdout, stderr io.Writer) int {
	rec := newRecorder()
	var rep *childReport
	if w, ok := simWorkloadFor(name); ok {
		rep = runSimChild(name, w, seed, seconds, trace, rec)
	} else if name == wRegen {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+childTimeout)
		defer cancel()
		rep = runRegenChild(ctx, root, characterizeBin(root), seconds, trace, rec)
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
		return 1
	}
	if trace {
		if err := writeCheckedTrace(rec, traceOut); err != nil {
			rep.Attempted++
			rep.fail("trace", err)
		}
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// writeCheckedTrace writes the Chrome trace and reads it back through the
// validator, so a traced run never leaves a trace that does not load.
func writeCheckedTrace(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := rec.writeChromeFile(path); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := checkChrome(f)
	if err == nil && n == 0 {
		err = fmt.Errorf("%s holds no spans", path)
	}
	return err
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// toResult picks the reported metric set from a child's report. A
// metric a workload does not exercise reads 0.
func toResult(rep *childReport, defs []metricDef) result {
	r := result{
		Correct:   rep.Failed == 0 && rep.Attempted > 0,
		Attempted: max(rep.Attempted, 1),
		Failed:    rep.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := rep.Metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r
}

// printReport writes the human-readable lines for one workload.
func printReport(w io.Writer, h hostInfo, seed uint64, trace int, rep *childReport, res result, defs []metricDef) {
	fmt.Fprintf(w, "# %s seed=%d trace=%d gomaxprocs=%d units=%d attempted=%d failed=%d digest=%s\n",
		rep.Workload, seed, trace, rep.GOMAXPROCS, rep.Units, res.Attempted, res.Failed, rep.Digest)
	fmt.Fprintf(w, "# host %s %s/%s nproc=%d cpu=%q commit=%s dirty=%v\n",
		h.GoVersion, h.OS, h.Arch, h.NumCPU, h.CPUModel, h.Commit, h.Dirty)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "# FAILED %s\n", e)
	}
	for _, d := range defs {
		line := fmt.Sprintf("%s %s = %.6g %s", rep.Workload, d.name, res.Metrics[d.name].Value, d.unit)
		if s, ok := rep.Summaries[d.name]; ok && trace == 0 {
			line += fmt.Sprintf("  (median of %d, q1 %.6g, q3 %.6g, spread %.1f%%)", s.N, s.Q1, s.Q3, 100*s.spread())
		}
		fmt.Fprintln(w, line)
	}
	if trace == 0 {
		fmt.Fprintf(w, "%s unit_s_p90 = %.6g s  (resolved=%v: needs 10 units beyond it)\n",
			rep.Workload, rep.Metrics["host.unit_s_p90"], rep.P90Resolved)
	}
}

// record is one workload run as -out appends it: the result line plus
// everything needed to reproduce and compare it.
type record struct {
	result
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       int                `json:"trace"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Units       int                `json:"units"`
	P90Resolved bool               `json:"p90_resolved"`
	Digest      string             `json:"digest,omitempty"`
	Summaries   map[string]summary `json:"summaries,omitempty"`
	Host        hostInfo           `json:"host"`
	Time        string             `json:"time"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
