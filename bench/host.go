package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
)

// hostInfo is the metadata every result record carries, so a number can be
// traced to the machine, toolchain and commit that produced it.
type hostInfo struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	NumCPU    int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	Commit    string `json:"commit"`
	Dirty     bool   `json:"dirty"`
}

func readHost(root string) hostInfo {
	h := hostInfo{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
		Commit:    "unknown",
	}
	if out, err := git(root, "rev-parse", "HEAD"); err == nil {
		h.Commit = strings.TrimSpace(out)
		if st, err := git(root, "status", "--porcelain"); err == nil {
			h.Dirty = strings.TrimSpace(st) != ""
		}
	}
	return h
}

// git runs a git command in root without letting it search above root for
// a repository; a checkout that is not a git repository reports an error.
func git(root string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	return string(out), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns this process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goSample is a reading of the Go runtime's cumulative counters.
type goSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var goSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func (a goSample) sub(b goSample) goSample {
	return goSample{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

func (a goSample) add(b goSample) goSample {
	return goSample{
		allocBytes: a.allocBytes + b.allocBytes,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcCPU:      a.gcCPU + b.gcCPU,
		totalCPU:   a.totalCPU + b.totalCPU,
	}
}
