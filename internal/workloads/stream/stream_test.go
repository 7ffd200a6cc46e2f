package stream

import (
	"testing"

	"thymesim/internal/cluster"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// testbed returns a testbed whose LLC is small enough that the test-sized
// arrays stream through it (the paper sizes STREAM beyond the LLC).
func testbed(period int64) *cluster.Testbed {
	cfg := cluster.DefaultConfig(period)
	cfg.LLC.SizeBytes = 64 << 10
	cfg.LLC.Ways = 4
	return cluster.NewTestbed(cfg)
}

func runStream(t *testing.T, period int64, elements int, remote bool) []Result {
	t.Helper()
	tb := testbed(period)
	var r *Runner
	if remote {
		cfg := DefaultConfig(tb.RemoteAddr(0))
		cfg.Elements = elements
		r = New(tb.K, tb.NewRemoteHierarchy(), cfg)
	} else {
		cfg := DefaultConfig(0)
		cfg.Elements = elements
		r = New(tb.K, tb.NewLocalHierarchy(), cfg)
	}
	var out []Result
	tb.K.At(0, func() { r.Run(func(res []Result) { out = res }) })
	tb.K.Run()
	if out == nil {
		t.Fatal("stream did not complete")
	}
	return out
}

func TestStreamCompletesAndValidates(t *testing.T) {
	res := runStream(t, 1, 1<<14, true)
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	order := []Kernel{Copy, Scale, Add, Triad}
	for i, r := range res {
		if r.Kernel != order[i] {
			t.Errorf("kernel %d = %v", i, r.Kernel)
		}
		if r.BandwidthBps <= 0 || r.Elapsed <= 0 {
			t.Errorf("%v: bw=%v elapsed=%v", r.Kernel, r.BandwidthBps, r.Elapsed)
		}
	}
	// copy/scale move 16B/elem; add/triad 24B/elem.
	if res[0].Bytes != uint64(1<<14*16) || res[3].Bytes != uint64(1<<14*24) {
		t.Errorf("bytes = %d/%d", res[0].Bytes, res[3].Bytes)
	}
}

func TestStreamLocalFasterThanRemote(t *testing.T) {
	local := runStream(t, 1, 1<<14, false)
	remote := runStream(t, 1, 1<<14, true)
	lb, _ := Summary(local)
	rb, _ := Summary(remote)
	if lb <= rb {
		t.Fatalf("local %v B/s not faster than remote %v B/s", lb, rb)
	}
}

func TestStreamBandwidthDropsWithPeriod(t *testing.T) {
	fast := runStream(t, 1, 1<<14, true)
	slow := runStream(t, 100, 1<<14, true)
	fb, fl := Summary(fast)
	sb, sl := Summary(slow)
	if sb >= fb/10 {
		t.Fatalf("PERIOD=100 bandwidth %v vs %v: expected ~30x drop", sb, fb)
	}
	if sl <= fl {
		t.Fatalf("PERIOD=100 latency %v <= %v", sl, fl)
	}
}

func TestStreamSaturatedInjectorRate(t *testing.T) {
	// Under saturation, the injector must release exactly one request per
	// PERIOD cycles: transfers/elapsed ~= 1/(PERIOD*4ns).
	const period = 50
	tb := testbed(period)
	cfg := DefaultConfig(tb.RemoteAddr(0))
	cfg.Elements = 1 << 14
	r := New(tb.K, tb.NewRemoteHierarchy(), cfg)
	tb.K.At(0, func() { r.Run(func([]Result) {}) })
	end := tb.K.Run()
	rate := float64(tb.BorrowerNIC.InjectorTransfers()) / sim.Time(end).Seconds()
	want := 1.0 / (float64(period) * 4e-9)
	if rate < 0.85*want || rate > 1.02*want {
		t.Fatalf("injector rate = %.4g/s, want ~%.4g/s", rate, want)
	}
}

func TestStreamBDPConstant(t *testing.T) {
	bdp := func(period int64) float64 {
		res := runStream(t, period, 1<<14, true)
		bw, lat := Summary(res)
		return bw * lat / 1e6
	}
	a := bdp(25)
	b := bdp(100)
	ratio := a / b
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("BDP not ~constant: %v vs %v", a, b)
	}
	// And in the right regime: window(129) * 128B ≈ 16.5kB.
	if a < 4_000 || a > 40_000 {
		t.Fatalf("BDP = %v B, want ~16.5kB regime", a)
	}
}

func TestStreamValidationCatchesCorruption(t *testing.T) {
	tb := testbed(1)
	cfg := DefaultConfig(tb.RemoteAddr(0))
	cfg.Elements = 1 << 10
	r := New(tb.K, tb.NewRemoteHierarchy(), cfg)
	r.a[5] = 42 // corrupt before run: copy propagates, triad overwrites a.
	if err := r.Check(); err == nil {
		t.Fatal("Check accepted unexpected initial state")
	}
}

func TestStreamConfigValidation(t *testing.T) {
	bad := []Config{
		{Elements: 4, Iterations: 1, Window: 1},
		{Elements: 1 << 12, Iterations: 0, Window: 1},
		{Elements: 1 << 12, Iterations: 1, Window: 0},
		{Elements: 1 << 12, Iterations: 1, Window: 1, BaseAddr: 3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestStreamMultiIteration(t *testing.T) {
	tb := testbed(1)
	cfg := DefaultConfig(tb.RemoteAddr(0))
	cfg.Elements = 1 << 12
	cfg.Iterations = 3
	r := New(tb.K, tb.NewRemoteHierarchy(), cfg)
	var out []Result
	tb.K.At(0, func() { r.Run(func(res []Result) { out = res }) })
	tb.K.Run()
	if len(out) != 12 {
		t.Fatalf("results = %d, want 12 (4 kernels x 3 iterations)", len(out))
	}
}

func TestStreamFillsMatchWorkingSet(t *testing.T) {
	// With a cold cache and arrays beyond LLC, each kernel must fill
	// roughly (arrays touched x lines per array) lines.
	res := runStream(t, 1, 1<<14, true)
	linesPerArray := uint64(1 << 14 * 8 / ocapi.CacheLineSize)
	// copy touches 2 arrays.
	if f := res[0].LineFills; f < linesPerArray*2-64 || f > linesPerArray*2+512 {
		t.Errorf("copy fills = %d, want ~%d", f, 2*linesPerArray)
	}
	// add touches 3 arrays.
	if f := res[2].LineFills; f < linesPerArray*3-64 || f > linesPerArray*3+512 {
		t.Errorf("add fills = %d, want ~%d", f, 3*linesPerArray)
	}
}

func TestKernelStrings(t *testing.T) {
	if Copy.String() != "copy" || Triad.String() != "triad" || Kernel(9).String() == "" {
		t.Error("kernel names wrong")
	}
}

var _ = sim.Time(0)
