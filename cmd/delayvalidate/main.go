// Command delayvalidate reproduces the §III-B validation of the delay
// injection framework: it sweeps PERIOD with STREAM, verifies the linear
// PERIOD-to-latency correlation, checks that the induced latency range
// covers datacenter network latencies, and reports the bandwidth-delay
// product's constancy.
//
// Usage:
//
//	delayvalidate [-periods 1,2,5,...] [-elements N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"thymesim/internal/core"
)

func parsePeriods(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, err
		}
		if p < 1 {
			return nil, fmt.Errorf("period %d < 1", p)
		}
		out = append(out, p)
	}
	return out, nil
}

// buildOptions maps -elements onto the default options: zero keeps the
// default, and a negative count is an error rather than a silent fallback.
func buildOptions(elements int) (core.Options, error) {
	opts := core.Default()
	if elements < 0 {
		return opts, fmt.Errorf("-elements must be >= 0 (0 = default), got %d", elements)
	}
	if elements > 0 {
		opts.StreamElements = elements
	}
	return opts, opts.Validate()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("delayvalidate: ")
	var (
		periodsFlag = flag.String("periods", "1,2,5,10,25,50,100,200,300", "comma-separated PERIOD sweep")
		elements    = flag.Int("elements", 0, "STREAM array elements (0 = default)")
	)
	flag.Parse()

	periods, err := parsePeriods(*periodsFlag)
	if err != nil {
		log.Fatal(err)
	}
	opts, err := buildOptions(*elements)
	if err != nil {
		log.Fatal(err)
	}

	v := opts.RunDelayValidation(periods)
	fmt.Printf("%-8s %12s %14s %10s\n", "PERIOD", "latency(us)", "bandwidth(GB/s)", "BDP(kB)")
	latS := v.Latency.Series[0]
	for i, pt := range latS.Points {
		bw := v.Bandwidth.Series[0].Points[i].Y
		bdp := v.BDP.Series[0].Points[i].Y
		fmt.Printf("%-8.0f %12.3f %14.4f %10.2f\n", pt.X, pt.Y, bw, bdp)
	}
	fmt.Printf("\nlinear fit: latency = %.4g us/PERIOD x PERIOD + %.4g us (r^2 = %.5f)\n",
		v.Slope, v.Intercept, v.R2)
	lo, hi, _ := v.BDP.Series[0].MinMaxY()
	fmt.Printf("BDP range: %.2f - %.2f kB (paper: ~16.5 kB, constant)\n", lo, hi)
	if v.R2 < 0.99 {
		fmt.Fprintln(os.Stderr, "WARNING: PERIOD-latency correlation below 0.99")
		os.Exit(1)
	}
}
