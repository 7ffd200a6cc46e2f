package kvstore

import (
	"testing"

	"thymesim/internal/cluster"
	"thymesim/internal/sim"
)

func testbed(period int64) *cluster.Testbed {
	cfg := cluster.DefaultConfig(period)
	cfg.LLC.SizeBytes = 256 << 10
	cfg.LLC.Ways = 4
	return cluster.NewTestbed(cfg)
}

func newServer(tb *cluster.Testbed, remote bool) *Server {
	var base uint64
	h := tb.NewLocalHierarchy()
	if remote {
		base = tb.RemoteAddr(0)
		h = tb.NewRemoteHierarchy()
	}
	scfg := DefaultConfig(base)
	scfg.InitialBuckets = 1 << 10
	store := NewStore(scfg)
	return NewServer(tb.K, h, store, DefaultServerConfig())
}

func TestServerServesRequests(t *testing.T) {
	tb := testbed(1)
	srv := newServer(tb, true)
	var got Response
	tb.K.At(0, func() {
		srv.Submit(Request{Cmd: CmdSet, Key: "a", Value: []byte("1")}, func(Response) {})
		srv.Submit(Request{Cmd: CmdGet, Key: "a"}, func(r Response) { got = r })
	})
	tb.K.Run()
	if !got.OK || string(got.Value) != "1" {
		t.Fatalf("response = %+v", got)
	}
	if srv.Stats().Requests != 2 || srv.Stats().Hits != 1 {
		t.Fatalf("stats = %+v", srv.Stats())
	}
}

func TestServerSingleThreadedQueueing(t *testing.T) {
	tb := testbed(1)
	srv := newServer(tb, true)
	var doneAt []sim.Time
	tb.K.At(0, func() {
		for i := 0; i < 4; i++ {
			srv.Submit(Request{Cmd: CmdGet, Key: "missing"}, func(Response) {
				doneAt = append(doneAt, tb.K.Now())
			})
		}
	})
	tb.K.Run()
	if len(doneAt) != 4 {
		t.Fatal("not all served")
	}
	// Single-threaded: completions strictly spaced by at least the
	// netstack+CPU cost.
	minGap := DefaultServerConfig().NetStack
	for i := 1; i < len(doneAt); i++ {
		if doneAt[i].Sub(doneAt[i-1]) < minGap {
			t.Fatalf("requests overlapped: %v", doneAt)
		}
	}
	if srv.PeakQueueDepth() < 3 {
		t.Fatalf("peak queue depth = %d", srv.PeakQueueDepth())
	}
}

func TestServerAllCommands(t *testing.T) {
	tb := testbed(1)
	srv := newServer(tb, false)
	type out struct {
		resp Response
		cmd  CmdType
	}
	var outs []out
	run := func(req Request) {
		srv.Submit(req, func(r Response) { outs = append(outs, out{r, req.Cmd}) })
	}
	tb.K.At(0, func() {
		run(Request{Cmd: CmdSet, Key: "s", Value: []byte("v")})
		run(Request{Cmd: CmdGet, Key: "s"})
		run(Request{Cmd: CmdIncr, Key: "n"})
		run(Request{Cmd: CmdIncr, Key: "n"})
		run(Request{Cmd: CmdLPush, Key: "l", Value: []byte("x")})
		run(Request{Cmd: CmdLRange, Key: "l", Count: 10})
		run(Request{Cmd: CmdDel, Key: "s"})
		run(Request{Cmd: CmdGet, Key: "s"})
	})
	tb.K.Run()
	if len(outs) != 8 {
		t.Fatalf("served %d", len(outs))
	}
	if !outs[1].resp.OK || string(outs[1].resp.Value) != "v" {
		t.Fatalf("GET = %+v", outs[1].resp)
	}
	if outs[3].resp.Int != 2 {
		t.Fatalf("INCR = %d", outs[3].resp.Int)
	}
	if len(outs[5].resp.List) != 1 {
		t.Fatalf("LRANGE = %+v", outs[5].resp)
	}
	if outs[7].resp.OK {
		t.Fatal("GET after DEL succeeded")
	}
}

func runBench(t *testing.T, period int64, remote bool) BenchResult {
	t.Helper()
	tb := testbed(period)
	srv := newServer(tb, remote)
	cfg := DefaultBenchConfig()
	cfg.Threads = 2
	cfg.ConnsPerThread = 10
	cfg.RequestsPerClient = 10
	cfg.KeySpace = 1 << 12
	var res BenchResult
	got := false
	tb.K.At(0, func() {
		RunBench(tb.K, srv, cfg, func(r BenchResult) { res = r; got = true })
	})
	tb.K.Run()
	if !got {
		t.Fatal("bench never finished")
	}
	return res
}

func TestBenchCompletes(t *testing.T) {
	res := runBench(t, 1, true)
	if res.Requests != 200 {
		t.Fatalf("requests = %d, want 200", res.Requests)
	}
	if res.Throughput <= 0 || res.Elapsed <= 0 {
		t.Fatalf("throughput=%v elapsed=%v", res.Throughput, res.Elapsed)
	}
	if res.LatencyUs.Count() != 200 {
		t.Fatalf("latency samples = %d", res.LatencyUs.Count())
	}
	// Mix approximates 1:10 SET:GET.
	frac := float64(res.Sets) / float64(res.Requests)
	if frac < 0.02 || frac > 0.2 {
		t.Fatalf("set fraction = %v", frac)
	}
}

func TestRedisInsensitiveToModerateDelay(t *testing.T) {
	// The headline Redis result: remote at PERIOD=1 within a few percent
	// of local; throughput ratio near 1.
	local := runBench(t, 1, false)
	remote := runBench(t, 1, true)
	ratio := local.Throughput / remote.Throughput
	if ratio > 1.25 {
		t.Fatalf("remote Redis degraded %vx at PERIOD=1, want ~1x", ratio)
	}
}

func TestRedisDegradesModeratelyAtHighDelay(t *testing.T) {
	local := runBench(t, 1, false)
	slow := runBench(t, 1000, true)
	ratio := local.Throughput / slow.Throughput
	// Table I: 1.73x. Accept 1.2-4x — the point is "moderate, not
	// catastrophic" in contrast with Graph500's >100x.
	if ratio < 1.2 || ratio > 4 {
		t.Fatalf("PERIOD=1000 Redis degradation = %vx, want ~1.7x regime", ratio)
	}
}

func TestBenchConfigValidation(t *testing.T) {
	bad := []BenchConfig{
		{Threads: 0, ConnsPerThread: 1, RequestsPerClient: 1, KeySpace: 1, ValueBytes: 1},
		{Threads: 1, ConnsPerThread: 1, RequestsPerClient: 1, SetFraction: 2, KeySpace: 1, ValueBytes: 1},
		{Threads: 1, ConnsPerThread: 1, RequestsPerClient: 1, KeySpace: 0, ValueBytes: 1},
		{Threads: 1, ConnsPerThread: 1, RequestsPerClient: 1, KeySpace: 1, ValueBytes: 1, ClientRTT: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if DefaultBenchConfig().Clients() != 200 {
		t.Errorf("clients = %d", DefaultBenchConfig().Clients())
	}
}

func TestCmdStrings(t *testing.T) {
	for _, c := range []CmdType{CmdGet, CmdSet, CmdDel, CmdIncr, CmdLPush, CmdLRange, CmdType(99)} {
		if c.String() == "" {
			t.Errorf("empty name for %d", int(c))
		}
	}
}

func TestServerExpireAndTTLCommands(t *testing.T) {
	tb := testbed(1)
	srv := newServer(tb, false)
	var ttlResp, getResp Response
	tb.K.At(0, func() {
		srv.Submit(Request{Cmd: CmdSet, Key: "s", Value: []byte("v")}, func(Response) {})
		srv.Submit(Request{Cmd: CmdExpire, Key: "s", TTL: 200 * sim.Microsecond}, func(r Response) {
			if !r.OK {
				t.Error("EXPIRE failed")
			}
		})
		srv.Submit(Request{Cmd: CmdTTL, Key: "s"}, func(r Response) { ttlResp = r })
	})
	tb.K.Run()
	if !ttlResp.OK || ttlResp.Int <= 0 {
		t.Fatalf("TTL response = %+v", ttlResp)
	}
	// Query long after the expiry instant: lazily reaped.
	tb.K.At(tb.K.Now().Add(sim.Duration(sim.Second)), func() {
		srv.Submit(Request{Cmd: CmdGet, Key: "s"}, func(r Response) { getResp = r })
	})
	tb.K.Run()
	if getResp.OK {
		t.Fatal("GET found an expired key")
	}
	if srv.Store().Expired() != 1 {
		t.Fatalf("expired = %d", srv.Store().Expired())
	}
}
