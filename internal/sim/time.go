// Package sim provides a deterministic discrete-event simulation kernel
// used by every other package in thymesim.
//
// Simulated time is kept in integer picoseconds so that sub-nanosecond
// quantities (link serialization of single bytes, fractions of FPGA clock
// cycles) are represented exactly and runs are bit-for-bit reproducible.
// Events scheduled for the same instant fire in FIFO order of scheduling,
// which makes the kernel deterministic independent of map iteration or
// goroutine interleaving: the kernel is strictly single-threaded.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulated time in picoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations, in simulated picoseconds.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulation instant. It is used as a
// sentinel for "never".
const MaxTime = Time(1<<63 - 1)

// Add returns t advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e12 }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e6 }

// Nanos converts t to floating-point nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / 1e3 }

// String renders the instant with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e12 }

// Micros converts d to floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e6 }

// Nanos converts d to floating-point nanoseconds.
func (d Duration) Nanos() float64 { return float64(d) / 1e3 }

// Std converts d to a time.Duration, saturating at the representable range.
func (d Duration) Std() time.Duration {
	ns := d / 1000
	return time.Duration(ns) * time.Nanosecond
}

// String renders the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0s"
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3gns", d.Nanos())
	case d < Millisecond:
		return fmt.Sprintf("%.4gus", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/1e9)
	default:
		return fmt.Sprintf("%.4gs", d.Seconds())
	}
}

// PerSecond converts a count accumulated over elapsed simulated time into a
// per-second rate. It returns 0 when elapsed is not positive.
func PerSecond(count float64, elapsed Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return count / elapsed.Seconds()
}
