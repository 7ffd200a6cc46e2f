// Package prof wires runtime/pprof capture into the command-line tools:
// a CPU profile spanning the experiment runs and an allocation profile
// snapshotted after them, for feeding `go tool pprof` when hunting
// datapath regressions.
package prof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to path; an empty path is a no-op. The
// returned stop function finishes and flushes the profile.
func Start(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap dumps the allocation profile (every allocation since program
// start, plus live-heap stats) to path; an empty path is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle live-object stats before snapshotting
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StartMutex enables mutex-contention profiling and returns a stop
// function that writes the profile to path and disables sampling; an
// empty path is a no-op. The event kernel takes no locks, so mutex
// samples point at the layers that do: the metrics plane, the sweep pool,
// the monitor endpoint.
func StartMutex(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	runtime.SetMutexProfileFraction(1)
	return func() error {
		defer runtime.SetMutexProfileFraction(0)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// StartBlock enables goroutine blocking profiling (every blocking event)
// and returns a stop function that writes the profile to path and
// disables sampling; an empty path is a no-op. It shows sweep workers
// waiting on one another and the monitor endpoint waiting on the plane.
func StartBlock(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	runtime.SetBlockProfileRate(1)
	return func() error {
		defer runtime.SetBlockProfileRate(0)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
