package cache

import (
	"testing"
	"testing/quick"

	"thymesim/internal/ocapi"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 128B lines = 1 KiB.
	return New(Config{SizeBytes: 1024, Ways: 2, LineSize: 128})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, Ways: 2, LineSize: 100},       // line not pow2
		{SizeBytes: 1000, Ways: 2, LineSize: 128},       // size not divisible
		{SizeBytes: 1024, Ways: 0, LineSize: 128},       // no ways
		{SizeBytes: 1152, Ways: 3, LineSize: 128},       // 3 sets: not pow2
		{SizeBytes: -128, Ways: 1, LineSize: 128},       // negative
		{SizeBytes: 1024, Ways: 1 << 57, LineSize: 128}, // ways*line overflows to 0
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := smallCache()
	r := c.Access(0x1000, false)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	r = c.Access(0x1000, false)
	if !r.Hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	r = c.Access(0x1000+64, false)
	if !r.Hit {
		t.Fatal("same-line access missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 4 sets, 2 ways
	// Three lines mapping to set 0: line addresses 0, 4*128, 8*128.
	a0 := uint64(0)
	a1 := uint64(4 * 128)
	a2 := uint64(8 * 128)
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // a0 now MRU
	r := c.Access(a2, false)
	if r.Hit || !r.Evicted {
		t.Fatalf("expected eviction: %+v", r)
	}
	if c.Contains(a1) {
		t.Fatal("LRU victim a1 still present")
	}
	if !c.Contains(a0) || !c.Contains(a2) {
		t.Fatal("wrong lines evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := smallCache()
	a0 := uint64(0)
	a1 := uint64(4 * 128)
	a2 := uint64(8 * 128)
	c.Access(a0, true) // dirty
	c.Access(a1, false)
	r := c.Access(a2, false) // evicts a0 (LRU)
	if !r.Writeback {
		t.Fatalf("dirty eviction produced no writeback: %+v", r)
	}
	if r.VictimAddr != a0 {
		t.Fatalf("victim = %#x, want %#x", r.VictimAddr, a0)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := smallCache()
	c.Access(0, false)
	c.Access(4*128, false)
	r := c.Access(8*128, false)
	if !r.Evicted || r.Writeback {
		t.Fatalf("clean eviction: %+v", r)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := smallCache()
	c.Access(0, false)
	c.Access(0, true) // write hit dirties the line
	c.Access(4*128, false)
	r := c.Access(8*128, false)
	if !r.Writeback || r.VictimAddr != 0 {
		t.Fatalf("write-hit dirty not written back: %+v", r)
	}
}

func TestFlush(t *testing.T) {
	c := smallCache()
	c.Access(0, true)
	c.Access(128, false)
	if wb := c.Flush(); wb != 1 {
		t.Fatalf("flush writebacks = %d", wb)
	}
	if c.Contains(0) || c.Contains(128) {
		t.Fatal("lines survived flush")
	}
}

func TestStreamingMissRate(t *testing.T) {
	// Sequentially touching a region much larger than the cache must miss
	// once per line — the STREAM working-set condition in §IV-A.
	c := smallCache()
	const lines = 1000
	for i := 0; i < lines; i++ {
		for off := uint64(0); off < 128; off += 8 {
			c.Access(uint64(i)*128+off, false)
		}
	}
	st := c.Stats()
	if st.Misses != lines {
		t.Fatalf("misses = %d, want %d (one per line)", st.Misses, lines)
	}
	wantHits := uint64(lines * 15) // 16 accesses per line, 15 hit
	if st.Hits != wantHits {
		t.Fatalf("hits = %d, want %d", st.Hits, wantHits)
	}
}

func TestHitRate(t *testing.T) {
	c := smallCache()
	if c.Stats().HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
	c.Access(0, false)
	c.Access(0, false)
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v", hr)
	}
}

func TestVictimAddressMapsToSameSet(t *testing.T) {
	// Property: an evicted victim's address must map to the set that was
	// accessed (correct address reconstruction).
	f := func(lineIdx []uint16) bool {
		c := New(Config{SizeBytes: 2048, Ways: 2, LineSize: 128})
		sets := uint64(c.Sets())
		for _, li := range lineIdx {
			addr := uint64(li) * 128
			r := c.Access(addr, li%3 == 0)
			if r.Writeback {
				if (r.VictimAddr/128)%sets != (addr/128)%sets {
					return false
				}
				if r.VictimAddr%128 != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses equals accesses, and a working set no larger than
// one set's ways never evicts.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		c := smallCache()
		for _, s := range seq {
			// Two distinct lines in set 0 (ways=2): never evicts.
			addr := uint64(s%2) * 4 * 128
			c.Access(addr, false)
		}
		st := c.Stats()
		return st.Hits+st.Misses == uint64(len(seq)) && st.Evictions == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinesHelperConsistency(t *testing.T) {
	// The cache's line geometry agrees with ocapi's.
	c := New(Config{SizeBytes: 4096, Ways: 2, LineSize: ocapi.CacheLineSize})
	c.Access(ocapi.CacheLineSize-1, false)
	if !c.Contains(0) {
		t.Fatal("offset within line 0 did not load line 0")
	}
}
