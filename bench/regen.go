package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"thymesim/internal/core"
)

// reportFile is the committed file that holds characterize's standard
// output; every other file in results/ is a CSV it writes with -out.
const reportFile = "report.txt"

// A regeneration runs characterize once per experiment, in
// core.ExperimentNames() order, all writing into one output directory. A
// whole run takes about half a minute, during which host speed drifts
// far more than any bound could allow; per experiment, calibration
// readings before and after bracket at most a few seconds, so each piece
// is scaled by the host speed it actually ran at. Together the pieces do
// the work of one characterize -out run, plus one process start per
// experiment.

// regeneration is the scaled timing of one full regeneration.
type regeneration struct {
	wall, rawWall float64
	setups        []float64          // exec to the progress line, per experiment
	experiments   map[string]float64 // progress line to the first report byte
	render        float64            // first report byte to exit, summed
	rssMB         float64            // invocations' peak RSS, summed
	reports       [][]byte           // each invocation's standard output
	cals          []float64          // calibration readings
}

// runRegenChild regenerates results/ until seconds have passed (at least
// once; with trace, at least one untraced and one traced regeneration),
// byte-comparing every committed file each time.
func runRegenChild(ctx context.Context, root, bin string, seconds float64, trace bool, rec *recorder) *childReport {
	rep := newReport(wRegen)
	tmp := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		rep.Attempted++
		rep.fail("set-up", err)
		return rep
	}
	names := core.ExperimentNames()
	var setups, walls, rawWalls, traced, render, cals, rss []float64
	exps := map[string][]float64{}
	minRuns := 1
	if trace {
		minRuns = 2
	}
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start).Seconds()+median(rawWalls) <= seconds; i++ {
		rec.on = trace && i%2 == 1
		sp := rec.begin("regen", -1, i)
		outDir, err := os.MkdirTemp(tmp, "regen-")
		if err != nil {
			rep.Attempted++
			rep.fail("set-up", err)
			return rep
		}
		g, err := regenerate(ctx, bin, outDir, names, rec, sp, i)
		if err != nil {
			os.RemoveAll(outDir)
			rep.Attempted++
			rep.fail(fmt.Sprintf("regeneration %d", i), err)
			return rep
		}
		a := rec.begin("audit", sp, i)
		attempted, bad, err := compareResults(filepath.Join(root, "results"), outDir, g.reports)
		rec.end(a)
		rec.end(sp)
		isTraced := rec.on
		rec.on = false
		os.RemoveAll(outDir)

		rep.Units++
		rep.Attempted += attempted
		if err != nil {
			rep.Attempted++
			rep.fail("compare", err)
		}
		for _, b := range bad {
			rep.fail("results", fmt.Errorf("%s differs from the committed file", b))
		}
		setups = append(setups, g.setups...)
		cals = append(cals, g.cals...)
		if !isTraced {
			walls = append(walls, g.wall)
			rawWalls = append(rawWalls, g.rawWall)
			rss = append(rss, g.rssMB)
			continue
		}
		traced = append(traced, g.wall)
		render = append(render, g.render)
		for name, s := range g.experiments {
			exps[name] = append(exps[name], s)
		}
	}

	m := rep.Metrics
	m["setup_s"] = median(setups)
	m["unit_s_p50"] = median(walls)
	m["peak_rss_mb"] = median(rss)
	rep.Summaries["setup_s"] = summarize(setups)
	rep.Summaries["unit_s_p50"] = summarize(walls)
	m["host.unit_s_p90"], rep.P90Resolved = p90(walls)
	m["host.unit_s_raw_p50"] = median(rawWalls)
	m["host.calibration_s"] = median(cals)
	if trace {
		for _, name := range names {
			m["core.experiment_s."+name] = median(exps[name])
		}
		m["core.render_s"] = median(render)
		m["trace.overhead_frac"] = ratio(median(traced), median(walls)) - 1
		maps.Copy(m, runLadder())
	}
	return rep
}

// regenerate runs every experiment into outDir, scaling each by the
// calibration readings taken just before and after it.
func regenerate(ctx context.Context, bin, outDir string, names []string, rec *recorder, parent, unit int) (*regeneration, error) {
	g := &regeneration{experiments: map[string]float64{}}
	before := calibrate()
	g.cals = append(g.cals, before)
	for _, name := range names {
		sp := rec.begin("characterize", parent, unit)
		inv, err := characterize(ctx, bin, outDir, name)
		if err != nil {
			return nil, err
		}
		after := calibrate()
		g.cals = append(g.cals, after)
		scale := hostScale(wRegen, math.Sqrt(before*after))
		before = after

		wall := inv.end.Sub(inv.start).Seconds()
		g.rawWall += wall
		g.wall += wall * scale
		g.setups = append(g.setups, inv.running.Sub(inv.start).Seconds()*scale)
		g.experiments[name] = inv.firstOut.Sub(inv.running).Seconds() * scale
		g.render += inv.end.Sub(inv.firstOut).Seconds() * scale
		g.rssMB += inv.peakMB
		g.reports = append(g.reports, inv.stdout)

		// The child's own phases, cut from its timestamped output.
		rec.add("core.setup", inv.start, inv.running, sp, unit)
		rec.add("core.experiment."+name, inv.running, inv.firstOut, sp, unit)
		rec.add("core.render", inv.firstOut, inv.end, sp, unit)
		rec.end(sp)
	}
	return g, nil
}

// invocation is one characterize -experiment run: when it started, printed
// its progress line, began its report, and exited.
type invocation struct {
	start, running, firstOut, end time.Time
	stdout                        []byte
	stderr                        []string
	peakMB                        float64
}

// characterize runs one experiment at characterize's fixed default seed
// with every CPU (-j nproc), writing its CSVs into outDir.
func characterize(ctx context.Context, bin, outDir, experiment string) (*invocation, error) {
	cmd := exec.CommandContext(ctx, bin, "-experiment", experiment, "-out", outDir, "-j", strconv.Itoa(runtime.NumCPU()))
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	inv := &invocation{start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		chunk := make([]byte, 64<<10)
		for {
			n, err := stdout.Read(chunk)
			if n > 0 {
				if inv.firstOut.IsZero() {
					inv.firstOut = time.Now()
				}
				buf.Write(chunk[:n])
			}
			if err != nil {
				break
			}
		}
		inv.stdout = buf.Bytes()
	}()
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if inv.running.IsZero() && strings.HasPrefix(sc.Text(), "running ") {
				inv.running = time.Now()
			}
			inv.stderr = append(inv.stderr, sc.Text())
		}
	}()
	wg.Wait()
	err = cmd.Wait()
	inv.end = time.Now()
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			inv.peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	switch {
	case err != nil:
		return nil, fmt.Errorf("characterize -experiment %s: %w (stderr: %s)", experiment, err, strings.Join(inv.stderr, " | "))
	case inv.running.IsZero() || inv.firstOut.IsZero():
		return nil, fmt.Errorf("characterize -experiment %s printed no progress line or no report", experiment)
	}
	return inv, nil
}

// compareResults byte-compares every regular file in the committed
// results directory against the regenerated one, and flags regenerated
// files that are not committed. report.txt must be the report header
// followed by each experiment's section exactly once, taken from the
// per-experiment reports. attempted counts the files compared.
func compareResults(resultsDir, outDir string, reports [][]byte) (attempted int, bad []string, err error) {
	committed, err := os.ReadDir(resultsDir)
	if err != nil {
		return 0, nil, err
	}
	want := map[string]bool{}
	for _, e := range committed {
		if !e.Type().IsRegular() {
			continue
		}
		name := e.Name()
		want[name] = true
		attempted++
		exp, err := os.ReadFile(filepath.Join(resultsDir, name))
		if err != nil {
			return attempted, bad, err
		}
		if name == reportFile {
			if !reportMatches(exp, reports) {
				bad = append(bad, name)
			}
			continue
		}
		got, err := os.ReadFile(filepath.Join(outDir, name))
		switch {
		case err != nil:
			bad = append(bad, name+" (missing)")
		case !bytes.Equal(exp, got):
			bad = append(bad, name)
		}
	}
	if attempted == 0 {
		return 0, nil, fmt.Errorf("%s holds no committed results", resultsDir)
	}
	produced, err := os.ReadDir(outDir)
	if err != nil {
		return attempted, bad, err
	}
	for _, e := range produced {
		if !want[e.Name()] {
			attempted++
			bad = append(bad, e.Name()+" (not committed)")
		}
	}
	return attempted, bad, nil
}

// reportMatches reports whether the committed report is the header the
// per-experiment reports share followed by every report's section exactly
// once. Sections are matched in whatever order the committed report holds
// them, since the report renders experiments in its own order.
func reportMatches(committed []byte, reports [][]byte) bool {
	if len(reports) == 0 {
		return false
	}
	hdr := reports[0]
	for _, r := range reports[1:] {
		n := 0
		for n < len(hdr) && n < len(r) && hdr[n] == r[n] {
			n++
		}
		hdr = hdr[:n]
	}
	if len(reports) == 1 {
		return bytes.Equal(committed, reports[0])
	}
	rest, ok := bytes.CutPrefix(committed, hdr)
	if !ok {
		return false
	}
	left := make([][]byte, len(reports))
	for i, r := range reports {
		left[i] = r[len(hdr):]
	}
	for len(left) > 0 {
		best := -1
		for i, s := range left {
			if bytes.HasPrefix(rest, s) && (best < 0 || len(s) > len(left[best])) {
				best = i
			}
		}
		if best < 0 {
			return false
		}
		rest = rest[len(left[best]):]
		left = append(left[:best], left[best+1:]...)
	}
	return len(rest) == 0
}
