package core

import (
	"fmt"

	"thymesim/internal/cluster"
	"thymesim/internal/memport"
	"thymesim/internal/metrics"
	"thymesim/internal/ocapi"
	"thymesim/internal/pool"
	"thymesim/internal/sim"
	"thymesim/internal/sweep"
	"thymesim/internal/tfnic"
	"thymesim/internal/workloads/stream"
)

// PoolContention holds the rack-scale pooling experiment: mean per-borrower
// STREAM bandwidth as the borrower population grows, under each placement
// policy. Default-pair funnels every borrower onto one lender (the paper's
// fixed pairing scaled up — worst-case MCLN-style contention); least-loaded
// and locality spread regions across the pool.
type PoolContention struct {
	Figure   *metrics.Figure
	Policies []string
	Counts   []int
	// Bps[p][i] is the mean per-borrower bandwidth with Counts[i]
	// borrowers under Policies[p].
	Bps [][]float64
}

// streamRegionBytes returns the region size a borrower needs for one
// STREAM instance (three arrays plus slack), line-aligned.
func streamRegionBytes(elements int) uint64 {
	span := (uint64(elements)*8 + ocapi.CacheLineSize - 1) &^ uint64(ocapi.CacheLineSize-1)
	return 4 * span
}

// RunPoolContention sweeps borrower counts × placement policies on a
// rack with the given lender count. Each point is an independent pool:
// every borrower attaches one region through the policy and runs STREAM
// against it, all concurrently over the shared switch.
func (o Options) RunPoolContention(counts []int, lenders int) *PoolContention {
	policies := []string{"default-pair", "least-loaded", "locality"}
	pc := &PoolContention{
		Figure: &metrics.Figure{
			Title:  fmt.Sprintf("Pool contention: %d-lender rack, per-borrower STREAM bandwidth by placement policy", lenders),
			XLabel: "concurrent borrowers",
			YLabel: "per-borrower bandwidth (GB/s)",
		},
		Policies: policies,
		Counts:   counts,
	}
	flat := sweep.Map(o.Workers, len(policies)*len(counts), func(idx int) float64 {
		return o.runPoolPoint(policies[idx/len(counts)], counts[idx%len(counts)], lenders)
	})
	pc.Bps = make([][]float64, len(policies))
	for pi, name := range policies {
		s := pc.Figure.AddSeries(name)
		pc.Bps[pi] = flat[pi*len(counts) : (pi+1)*len(counts)]
		for ci, n := range counts {
			s.Add(float64(n), pc.Bps[pi][ci]/1e9)
		}
	}
	return pc
}

// runPoolPoint measures one (policy, borrower-count) point.
func (o Options) runPoolPoint(policy string, borrowers, lenders int) float64 {
	pol, err := pool.ByName(policy)
	if err != nil {
		panic(err)
	}
	region := streamRegionBytes(o.StreamElements)
	p := cluster.NewPool(cluster.PoolConfig{
		Borrowers: borrowers,
		Lenders:   lenders,
		Base:      o.TestbedConfig(1),
		Placement: pol,
		// Sized so even default-pair can funnel every borrower onto
		// lender 0: contention, not allocation failure, is the measured
		// effect.
		LenderCapacity: region * uint64(borrowers),
		// Two racks: locality has a real distance gradient to exploit.
		RackSize: (borrowers + lenders + 1) / 2,
	})
	var runners []*stream.Runner
	for i := 0; i < borrowers; i++ {
		r, err := p.Attach(i, region)
		if err != nil {
			panic(err)
		}
		cfg := stream.DefaultConfig(r.Addr(0))
		cfg.Elements = o.StreamElements
		runners = append(runners, stream.New(p.Borrowers[i].K, p.Borrowers[i].NewRemoteHierarchy(), cfg))
	}
	// Results land in per-borrower slots, so the average below sums
	// them in borrower order whatever order the runs finish in.
	all := make([][]stream.Result, borrowers)
	for i, r := range runners {
		i, r := i, r
		p.Borrowers[i].K.At(0, func() {
			r.Run(func(res []stream.Result) { all[i] = res })
		})
	}
	p.Run()
	var sum float64
	n := 0
	for _, res := range all {
		if res == nil {
			continue
		}
		bw, _ := stream.Summary(res)
		sum += bw
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PoolChaosConfig parameterizes the pool chaos campaign.
type PoolChaosConfig struct {
	Seed      uint64
	Borrowers int
	Lenders   int
	// Rounds of interleaved churn (attach/detach/grow), lender
	// crash/restore, and traffic bursts.
	Rounds int
	// TagSpace, when > 0, overrides the per-borrower transaction tag
	// space (the default 256 sizes every switch input queue at
	// 2*TagSpace*Borrowers; rack-scale campaigns shrink it to keep the
	// fabric realistic). MSHRs are capped to fit.
	TagSpace int
}

// DefaultPoolChaosConfig returns the nightly campaign shape.
func DefaultPoolChaosConfig() PoolChaosConfig {
	return PoolChaosConfig{Seed: 1, Borrowers: 4, Lenders: 3, Rounds: 24}
}

// Validate checks the configuration.
func (c PoolChaosConfig) Validate() error {
	if c.Borrowers < 1 || c.Lenders < 1 {
		return fmt.Errorf("core: pool chaos %dx%d", c.Borrowers, c.Lenders)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("core: pool chaos rounds = %d", c.Rounds)
	}
	return nil
}

// PoolChaos is the campaign result plus its invariant audit.
type PoolChaos struct {
	Seed   uint64
	Rounds int

	Attaches, Detaches, Grows uint64
	AttachRejected            uint64
	Crashes, Restores         uint64

	Issued, Completed uint64
	Poisoned, Expired uint64
	TranslationFaults uint64

	Violations []string
}

// OK reports whether every invariant held.
func (r *PoolChaos) OK() bool { return len(r.Violations) == 0 }

// RunPoolChaos churns a live pool: every round each borrower randomly
// attaches, detaches, or grows regions and bursts reads/writes at one of
// them, while lenders randomly crash and come back wiped (a control probe
// re-arms them). The deadline+ARQ stack keeps every transaction resolving;
// afterwards the audit checks the invariants that churn must never bend:
// exactly-once port accounting, ARQ conservation, allocator conservation
// against the live region set, full completion, and a clean fabric.
func (o Options) RunPoolChaos(cfg PoolChaosConfig) *PoolChaos {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	arq := tfnic.DefaultARQConfig()
	base := o.TestbedConfig(1)
	base.ARQ = &arq
	base.FillDeadline = 200 * sim.Microsecond
	if cfg.TagSpace > 0 {
		base.TagSpace = cfg.TagSpace
		if base.MSHRs > cfg.TagSpace {
			base.MSHRs = cfg.TagSpace
		}
	}
	p := cluster.NewPool(cluster.PoolConfig{
		Borrowers: cfg.Borrowers,
		Lenders:   cfg.Lenders,
		Base:      base,
		Placement: pool.LeastLoaded{},
		// Small reservations so the campaign actually exercises
		// allocation pressure and attach rejection.
		LenderCapacity: 4 << 20,
	})
	rng := sim.NewRand(cfg.Seed ^ 0x900C)
	res := &PoolChaos{Seed: cfg.Seed, Rounds: cfg.Rounds}

	live := make([][]cluster.Region, cfg.Borrowers)
	hs := make([]*memport.Hierarchy, cfg.Borrowers)
	for i := range hs {
		hs[i] = p.Borrowers[i].NewRemoteHierarchy()
	}
	crashed := -1
	const roundGap = 500 * sim.Microsecond
	// The campaign is a StepTo driver: each round the pool runs to the
	// round boundary, then the driver applies the control-plane phases
	// with the kernel parked.
	for round := 0; round < cfg.Rounds; round++ {
		p.StepTo(sim.Time(round) * sim.Time(roundGap))
		// Fault phase: restore last round's casualty wiped (a probe
		// re-arms its window state), or fell a fresh lender.
		if crashed >= 0 {
			l := crashed
			crashed = -1
			p.RestoreLender(l, true)
			res.Restores++
			p.Borrowers[0].ProbeLender(p.Lenders[l], 100*sim.Microsecond,
				func(bool, sim.Duration) {})
		} else if rng.Float64() < 0.25 {
			crashed = rng.Intn(cfg.Lenders)
			p.CrashLender(crashed)
			res.Crashes++
		}
		// Churn phase: pure control-plane work against the allocators.
		for b := 0; b < cfg.Borrowers; b++ {
			switch op := rng.Intn(10); {
			case op < 4:
				size := uint64(rng.Intn(16)+1) * (64 << 10)
				r, err := p.Attach(b, size)
				if err != nil {
					res.AttachRejected++ // pool full here; legal
					break
				}
				live[b] = append(live[b], r)
				res.Attaches++
			case op < 6:
				if len(live[b]) == 0 {
					break
				}
				j := rng.Intn(len(live[b]))
				if err := p.Detach(live[b][j]); err != nil {
					panic(err)
				}
				live[b] = append(live[b][:j], live[b][j+1:]...)
				res.Detaches++
			case op < 7:
				if len(live[b]) == 0 {
					break
				}
				j := rng.Intn(len(live[b]))
				grown, err := p.Grow(live[b][j], live[b][j].Size+64<<10)
				if err != nil {
					break // neighbour carved out; legal
				}
				live[b][j] = grown
				res.Grows++
			}
			// Traffic phase: a burst at one random live region.
			if len(live[b]) == 0 {
				continue
			}
			r := live[b][rng.Intn(len(live[b]))]
			lines := int(r.Size / ocapi.CacheLineSize)
			for a := rng.Intn(24) + 8; a > 0; a-- {
				off := uint64(rng.Intn(lines)) * ocapi.CacheLineSize
				res.Issued++
				hs[b].Access(r.Addr(off), 8, rng.Intn(2) == 0,
					func() { res.Completed++ })
			}
		}
	}
	p.Run()

	viol := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	if res.Issued != res.Completed {
		viol("completion: %d accesses issued, %d completed", res.Issued, res.Completed)
	}
	for b := 0; b < cfg.Borrowers; b++ {
		bn := p.Borrowers[b]
		be := bn.Backend()
		res.Poisoned += be.Poisoned()
		res.Expired += be.Expired()
		res.TranslationFaults += bn.NIC.Stats().TranslationFaults
		st := bn.ARQ.Stats()
		if got := be.Reads() + be.Writes(); got != st.Tracked+be.ExpiredUnsent() {
			viol("borrower %d exactly-once: port completed %d, ARQ tracked %d + expired-unsent %d",
				b, got, st.Tracked, be.ExpiredUnsent())
		}
		if st.Tracked != st.Completed+st.Dead {
			viol("borrower %d ARQ accounting: tracked %d != completed %d + dead %d",
				b, st.Tracked, st.Completed, st.Dead)
		}
	}
	liveOn := make([]uint64, cfg.Lenders)
	for b := range live {
		for _, r := range live[b] {
			liveOn[r.Lender] += r.Segment.Size
		}
	}
	for l, ln := range p.Lenders {
		a := ln.Alloc
		if a.Allocated()+a.FreeBytes() != a.Capacity() {
			viol("lender %d capacity leak: %d allocated + %d free != %d",
				l, a.Allocated(), a.FreeBytes(), a.Capacity())
		}
		if a.Allocated() != liveOn[l] {
			viol("lender %d allocator holds %d bytes, live regions sum to %d",
				l, a.Allocated(), liveOn[l])
		}
	}
	if p.Switch != nil && p.Switch.Dropped() != 0 {
		viol("switch dropped %d beats", p.Switch.Dropped())
	}
	if len(res.Violations) > 0 {
		o.Metrics.DumpOnAuditFailure("pool-chaos", res.Violations)
	}
	return res
}
