package kvstore

import (
	"fmt"

	"thymesim/internal/metrics"
	"thymesim/internal/sim"
)

// BenchConfig parameterizes the Memtier-style closed-loop load generator.
// Paper (§IV-A): 4 threads, 50 connections per thread, 10000 requests per
// client, ~4 GB working set.
type BenchConfig struct {
	Threads           int
	ConnsPerThread    int
	RequestsPerClient int
	// SetFraction is the SET share of the mix (memtier default 1:10 =>
	// 0.0909...).
	SetFraction float64
	// KeySpace is the number of distinct keys; ValueBytes their value
	// size. KeySpace*ValueBytes is the working set.
	KeySpace   int
	ValueBytes int
	// ClientRTT is the client<->server network round trip outside the
	// server's own stack time.
	ClientRTT sim.Duration
	// Seed drives key selection.
	Seed uint64
	// Prepopulate loads every key before timing starts.
	Prepopulate bool
}

// DefaultBenchConfig returns a scaled-down memtier setup (the paper's
// connection counts, fewer requests per client, working set beyond LLC).
func DefaultBenchConfig() BenchConfig {
	return BenchConfig{
		Threads:           4,
		ConnsPerThread:    50,
		RequestsPerClient: 50,
		SetFraction:       1.0 / 11.0,
		KeySpace:          1 << 15,
		ValueBytes:        512,
		ClientRTT:         30 * sim.Microsecond,
		Seed:              0xBEEF,
		Prepopulate:       true,
	}
}

// Validate checks the configuration.
func (c BenchConfig) Validate() error {
	if c.Threads <= 0 || c.ConnsPerThread <= 0 || c.RequestsPerClient <= 0 {
		return fmt.Errorf("kvstore: bad client counts %+v", c)
	}
	if c.SetFraction < 0 || c.SetFraction > 1 {
		return fmt.Errorf("kvstore: SetFraction %v", c.SetFraction)
	}
	if c.KeySpace <= 0 || c.ValueBytes <= 0 {
		return fmt.Errorf("kvstore: keyspace %d x %d", c.KeySpace, c.ValueBytes)
	}
	if c.ClientRTT < 0 {
		return fmt.Errorf("kvstore: negative client RTT")
	}
	return nil
}

// Clients returns the total connection count.
func (c BenchConfig) Clients() int { return c.Threads * c.ConnsPerThread }

// BenchResult reports the load generator's measurements.
type BenchResult struct {
	Requests   uint64
	Elapsed    sim.Duration
	Throughput float64 // requests per second
	// LatencyUs is the client-observed request latency distribution in
	// microseconds.
	LatencyUs *metrics.Histogram
	Sets      uint64
	Gets      uint64
}

// keyName formats key i (fixed width, memtier-style).
func keyName(i int) string { return fmt.Sprintf("memtier-%012d", i) }

// makeKeyTable formats the full keyspace once, so the request loop picks
// keys by index instead of formatting a fresh string per request.
func makeKeyTable(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyName(i)
	}
	return keys
}

// Prepopulate loads the full keyspace directly (untimed setup, as memtier
// does before its measured phase).
func Prepopulate(store *Store, cfg BenchConfig, rng *sim.Rand) {
	prepopulate(store, cfg, makeKeyTable(cfg.KeySpace))
}

func prepopulate(store *Store, cfg BenchConfig, keys []string) {
	val := make([]byte, cfg.ValueBytes)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for _, key := range keys {
		t := store.Set(key, val)
		store.RecycleTrace(&t)
	}
}

// benchRun is the state shared by every client of one RunBench call.
type benchRun struct {
	k    *sim.Kernel
	srv  *Server
	cfg  BenchConfig
	keys []string
	val  []byte

	res       BenchResult
	start     sim.Time
	remaining int
	done      func(BenchResult)
}

// benchClient is one closed-loop connection. It is a sim.Handler so the
// two half-RTT hops of every request reuse the client object instead of
// allocating closures: arg 0 = request reached the server, arg 1 =
// response reached the client.
type benchClient struct {
	run    *benchRun
	rng    *sim.Rand
	sent   int
	issued sim.Time
	req    Request
	respFn func(Response) // cached Submit callback
}

// Handle implements sim.Handler.
func (c *benchClient) Handle(arg uint64) {
	r := c.run
	if arg == 0 {
		r.srv.Submit(c.req, c.respFn)
		return
	}
	r.res.Requests++
	if c.req.Cmd == CmdSet {
		r.res.Sets++
	} else {
		r.res.Gets++
	}
	r.res.LatencyUs.Observe(r.k.Now().Sub(c.issued).Micros())
	c.sendNext()
}

func (c *benchClient) sendNext() {
	r := c.run
	if c.sent == r.cfg.RequestsPerClient {
		r.remaining--
		if r.remaining == 0 {
			r.res.Elapsed = r.k.Now().Sub(r.start)
			r.res.Throughput = sim.PerSecond(float64(r.res.Requests), r.res.Elapsed)
			r.done(r.res)
		}
		return
	}
	c.sent++
	key := r.keys[c.rng.Intn(r.cfg.KeySpace)]
	c.req = Request{Cmd: CmdGet, Key: key}
	if c.rng.Float64() < r.cfg.SetFraction {
		c.req = Request{Cmd: CmdSet, Key: key, Value: r.val}
	}
	c.issued = r.k.Now()
	// Half RTT to the server, service, half RTT back.
	r.k.AfterH(sim.Duration(r.cfg.ClientRTT/2), c, 0)
}

// RunBench drives the closed-loop benchmark against a server and calls
// done with the results when every client finishes.
func RunBench(k *sim.Kernel, srv *Server, cfg BenchConfig, done func(BenchResult)) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := sim.NewRand(cfg.Seed)
	keys := makeKeyTable(cfg.KeySpace)
	if cfg.Prepopulate {
		prepopulate(srv.Store(), cfg, keys)
	}
	val := make([]byte, cfg.ValueBytes)
	for i := range val {
		val[i] = byte('A' + i%26)
	}

	run := &benchRun{
		k:         k,
		srv:       srv,
		cfg:       cfg,
		keys:      keys,
		val:       val,
		res:       BenchResult{LatencyUs: metrics.NewHistogram(0.1)},
		start:     k.Now(),
		remaining: cfg.Clients(),
		done:      done,
	}
	for i := 0; i < cfg.Clients(); i++ {
		c := &benchClient{run: run, rng: rng.Split()}
		c.respFn = func(Response) {
			c.run.k.AfterH(sim.Duration(c.run.cfg.ClientRTT/2), c, 1)
		}
		c.sendNext()
	}
}
