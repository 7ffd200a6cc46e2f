package core

import (
	"thymesim/internal/cache"
	"thymesim/internal/memport"
	"thymesim/internal/metrics"
	"thymesim/internal/migrate"
	"thymesim/internal/workloads/latmem"
)

// MigrationResult quantifies the page-migration mechanism §IV-D proposes:
// a pointer chase repeatedly walking a hot remote buffer under injected
// delay, with and without OS page migration to local memory.
type MigrationResult struct {
	// NoMigrationUs is the mean per-hop latency with all accesses remote.
	NoMigrationUs float64
	// WithMigrationUs is the mean per-hop latency when hot pages are
	// promoted to local frames during the run.
	WithMigrationUs float64
	// Promotions and CopiedLines report the migration work performed.
	Promotions  uint64
	CopiedLines uint64
	Table       *metrics.Table
}

// RunMigration measures the chase at the given injector PERIOD. The
// buffer is sized to a handful of pages so promotion happens within the
// first laps and the remaining laps run local.
func (o Options) RunMigration(period int64) *MigrationResult {
	const bufBytes = 256 << 10 // 4 pages of 64 KiB
	laps := 6
	hops := laps * bufBytes / 128

	run := func(withMigration bool) (perHopUs float64, st migrate.Stats) {
		tb := o.Testbed(period)
		var backend memport.LineBackend = tb.RemoteBackend()
		var mig *migrate.Migrator
		if withMigration {
			mig = migrate.New(tb.K, backend, memport.NewDRAMBackend(tb.BorrowerMem), migrate.DefaultConfig(0x40_0000_0000))
			o.collectMigrator(tb.K, mig)
			backend = mig
		}
		h := memport.NewHierarchy(tb.K, cache.New(tb.Config().LLC), backend, tb.Config().MSHRs)
		cfg := latmem.DefaultConfig(tb.RemoteAddr(0))
		cfg.BufferBytes = bufBytes
		cfg.Hops = hops
		r := latmem.New(tb.K, h, cfg)
		var out latmem.Result
		tb.K.At(0, func() { r.Run(func(res latmem.Result) { out = res }) })
		tb.K.Run()
		if mig != nil {
			st = mig.Stats()
		}
		return out.PerHop.Micros(), st
	}

	res := &MigrationResult{}
	res.NoMigrationUs, _ = run(false)
	var st migrate.Stats
	res.WithMigrationUs, st = run(true)
	res.Promotions = st.Promotions
	res.CopiedLines = st.CopiedLines

	res.Table = &metrics.Table{
		Title:   "OS page migration under injected delay",
		Columns: []string{"configuration", "chase per-hop (us)"},
	}
	res.Table.AddRow("remote only", metricsFormat(res.NoMigrationUs))
	res.Table.AddRow("with page migration", metricsFormat(res.WithMigrationUs))
	return res
}
