package migrate

import (
	"testing"

	"thymesim/internal/obs"
	"thymesim/internal/ocapi"
	"thymesim/internal/sim"
)

// countBackend completes after a fixed latency and records addresses.
type countBackend struct {
	k       *sim.Kernel
	latency sim.Duration
	reads   int
	writes  int
	addrs   []uint64
}

func (f *countBackend) ReadLine(addr uint64, sp obs.SpanID, h sim.Handler, arg uint64) {
	f.reads++
	f.complete(addr, h, arg)
}

func (f *countBackend) WriteLine(addr uint64, h sim.Handler, arg uint64) {
	f.writes++
	f.complete(addr, h, arg)
}

func (f *countBackend) complete(addr uint64, h sim.Handler, arg uint64) {
	f.addrs = append(f.addrs, addr)
	f.k.After(f.latency, func() {
		if h != nil {
			h.Handle(arg)
		}
	})
}

// readLine and writeLine issue one untraced line operation on m that
// calls done (nil allowed) on completion.
func readLine(m *Migrator, addr uint64, done func()) { m.ReadLine(addr, 0, handler(done), 0) }

func writeLine(m *Migrator, addr uint64, done func()) { m.WriteLine(addr, handler(done), 0) }

func handler(done func()) sim.Handler {
	if done == nil {
		return nil
	}
	return sim.Func(done)
}

func smallConfig() Config {
	return Config{
		PageBytes:      1024, // 8 lines
		HotThreshold:   4,
		MaxPages:       2,
		LocalFrameBase: 0x4000_0000,
	}
}

func setup() (*sim.Kernel, *Migrator, *countBackend, *countBackend) {
	k := sim.NewKernel()
	remote := &countBackend{k: k, latency: sim.Duration(sim.Microsecond)}
	local := &countBackend{k: k, latency: 100 * sim.Nanosecond}
	return k, New(k, remote, local, smallConfig()), remote, local
}

func TestColdAccessesGoRemote(t *testing.T) {
	k, m, remote, local := setup()
	done := 0
	k.At(0, func() {
		readLine(m, 0, func() { done++ })
		writeLine(m, 128, func() { done++ })
	})
	k.Run()
	if done != 2 || remote.reads != 1 || remote.writes != 1 || local.reads+local.writes != 0 {
		t.Fatalf("done=%d remote=%d/%d local=%d/%d", done, remote.reads, remote.writes, local.reads, local.writes)
	}
	if m.Stats().RemoteAccesses != 2 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestHotPagePromotes(t *testing.T) {
	k, m, remote, local := setup()
	k.At(0, func() {
		var touch func(i int)
		touch = func(i int) {
			if i == 4 {
				return
			}
			readLine(m, uint64(i)*128, func() { touch(i + 1) })
		}
		touch(0)
	})
	k.Run()
	if m.Stats().Promotions != 1 || m.Resident() != 1 {
		t.Fatalf("promotions = %+v", m.Stats())
	}
	// Copy traffic: 8 remote reads + 8 local writes beyond the 4 demand
	// reads.
	if m.Stats().CopiedLines != 8 {
		t.Fatalf("copied = %d", m.Stats().CopiedLines)
	}
	if remote.reads != 4+8 {
		t.Fatalf("remote reads = %d", remote.reads)
	}
	if local.writes != 8 {
		t.Fatalf("local writes = %d", local.writes)
	}
	// Post-promotion accesses are local, at the remapped frame.
	before := local.reads
	k.At(k.Now(), func() { readLine(m, 256, nil) })
	k.Run()
	if local.reads != before+1 {
		t.Fatal("post-promotion access not local")
	}
	last := local.addrs[len(local.addrs)-1]
	if last != smallConfig().LocalFrameBase+256 {
		t.Fatalf("remapped addr = %#x", last)
	}
	if m.Stats().LocalAccesses != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestMidMigrationAccessesStayRemote(t *testing.T) {
	k, m, remote, _ := setup()
	k.At(0, func() {
		for i := 0; i < 4; i++ {
			readLine(m, uint64(i)*128, nil) // trips the threshold, starts copy
		}
	})
	// Immediately access again while the copy (1us per line) is running.
	k.At(sim.Time(100), func() { readLine(m, 0, nil) })
	k.RunUntil(sim.Time(200))
	if got := remote.reads; got < 5 {
		t.Fatalf("mid-migration access not remote: remote reads = %d", got)
	}
	k.Run()
	if m.Stats().Promotions != 1 {
		t.Fatal("promotion never completed")
	}
}

func TestFrameBudgetRejects(t *testing.T) {
	k, m, _, _ := setup() // MaxPages = 2
	k.At(0, func() {
		for pg := 0; pg < 3; pg++ {
			base := uint64(pg) * 1024
			for i := 0; i < 4; i++ {
				readLine(m, base+uint64(i)*128, nil)
			}
		}
	})
	k.Run()
	if m.Resident() != 2 {
		t.Fatalf("resident = %d, want 2 (budget)", m.Resident())
	}
	if m.Stats().Rejected == 0 {
		t.Fatal("no rejection recorded")
	}
}

func TestDistinctFramesPerPage(t *testing.T) {
	k, m, _, local := setup()
	k.At(0, func() {
		for pg := 0; pg < 2; pg++ {
			base := uint64(pg) * 1024
			for i := 0; i < 4; i++ {
				readLine(m, base+uint64(i)*128, nil)
			}
		}
	})
	k.Run()
	if m.Stats().Promotions != 2 {
		t.Fatalf("promotions = %d", m.Stats().Promotions)
	}
	// Local writes must cover two disjoint frames.
	frames := map[uint64]bool{}
	for _, a := range local.addrs {
		frames[a&^uint64(1023)] = true
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %v", frames)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{PageBytes: 100, HotThreshold: 1, MaxPages: 1},
		{PageBytes: 3 * ocapi.CacheLineSize, HotThreshold: 1, MaxPages: 1},
		{PageBytes: 1024, HotThreshold: 0, MaxPages: 1},
		{PageBytes: 1024, HotThreshold: 1, MaxPages: 0},
		{PageBytes: 1024, HotThreshold: 1, MaxPages: 1, LocalFrameBase: 100},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultConfig(0).Validate(); err != nil {
		t.Error(err)
	}
}

func TestDegradeLocalizesNewPages(t *testing.T) {
	k, m, remote, local := setup()
	done := 0
	k.At(0, func() {
		m.Degrade()
		if !m.Degraded() {
			t.Error("Degraded() false after Degrade")
		}
		// Two pages, never seen before: both must be served locally with
		// zero remote traffic and zero copy traffic.
		readLine(m, 0, func() { done++ })
		writeLine(m, 1024, func() { done++ })
		readLine(m, 64, func() { done++ }) // same page as the first
	})
	k.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if remote.reads+remote.writes != 0 {
		t.Fatalf("remote traffic after degrade: %d/%d", remote.reads, remote.writes)
	}
	if local.reads != 2 || local.writes != 1 {
		t.Fatalf("local traffic = %d/%d", local.reads, local.writes)
	}
	st := m.Stats()
	if st.DegradedPages != 2 || st.CopiedLines != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if m.Resident() != 2 {
		t.Fatalf("resident = %d", m.Resident())
	}
}

func TestDegradeExceedsFrameBudget(t *testing.T) {
	// MaxPages is 2, but a dead link must never refuse a frame.
	k, m, _, _ := setup()
	done := 0
	k.At(0, func() {
		m.Degrade()
		for i := 0; i < 4; i++ {
			readLine(m, uint64(i)*1024, func() { done++ })
		}
	})
	k.Run()
	if done != 4 || m.Resident() != 4 {
		t.Fatalf("done=%d resident=%d", done, m.Resident())
	}
}

func TestDegradePreservesPromotedPages(t *testing.T) {
	k, m, remote, local := setup()
	k.At(0, func() {
		// Heat page 0 past the threshold so it promotes (frame copy).
		var touch func(i int)
		touch = func(i int) {
			if i == 16 {
				m.Degrade()
				// Subsequent accesses stay on the promoted frame.
				readLine(m, 0, nil)
				return
			}
			readLine(m, uint64(i%8)*128, func() { touch(i + 1) })
		}
		touch(0)
	})
	k.Run()
	if m.Stats().Promotions != 1 {
		t.Fatalf("promotions = %d", m.Stats().Promotions)
	}
	if m.Stats().DegradedPages != 0 {
		t.Fatalf("degraded pages = %d for an already-promoted page", m.Stats().DegradedPages)
	}
	if local.reads == 0 {
		t.Fatal("promoted page not read locally")
	}
	_ = remote
}

func TestDegradeMidMigrationDoesNotDoubleAssign(t *testing.T) {
	k, m, remote, _ := setup()
	k.At(0, func() {
		// Cross the threshold to start a copy, then degrade immediately:
		// the in-flight copy completion must not clobber the degraded
		// frame assignment.
		var touch func(i int)
		touch = func(i int) {
			if i == 4 {
				m.Degrade()
				readLine(m, 0, nil) // localizes while the copy is in flight
				return
			}
			readLine(m, uint64(i)*128, func() { touch(i + 1) })
		}
		touch(0)
	})
	k.Run()
	st := m.Stats()
	if st.Promotions != 0 {
		t.Fatalf("promotion completed after degrade localized the page: %+v", st)
	}
	if st.DegradedPages != 1 {
		t.Fatalf("stats = %+v", st)
	}
	_ = remote
}
