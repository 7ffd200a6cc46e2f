// Package cache models the borrower CPU's last-level cache as a
// set-associative, write-back, write-allocate state machine, plus the MSHR
// discipline that bounds outstanding misses.
//
// The cache is purely functional state (hit/miss/eviction decisions);
// timing lives in internal/memport. The MSHR window is the architectural
// origin of the paper's constant bandwidth-delay product (Fig. 3): at most
// Window cache lines can be in flight to remote memory, so achieved
// bandwidth is Window×LineSize / latency, i.e. BDP ≈ Window×LineSize ≈
// 16.5 kB on the POWER9 testbed.
package cache

import "fmt"

// Config describes an LLC.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineSize  int // bytes per line (ocapi.CacheLineSize on POWER9)
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a positive power of two", c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways = %d", c.Ways)
	}
	// Bounding Ways by the line count first keeps ways*line from
	// overflowing.
	if c.SizeBytes <= 0 || c.Ways > c.SizeBytes/c.LineSize || c.SizeBytes%(c.LineSize*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recent
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative write-back cache model.
type Cache struct {
	cfg      Config
	sets     [][]line
	setMask  uint64
	lineBits uint
	clock    uint64
	stats    Stats
	onEvict  func(victimAddr uint64, dirty bool)
}

// New builds a cache; invalid configs panic.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineSize * cfg.Ways)
	c := &Cache{cfg: cfg, setMask: uint64(nsets - 1)}
	c.sets = make([][]line, nsets)
	backing := make([]line, nsets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	for bits := cfg.LineSize; bits > 1; bits >>= 1 {
		c.lineBits++
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

// OnEviction registers an observer fired whenever a valid line is
// displaced, with the victim's line address and dirtiness. A single
// observer keeps Access allocation-free; a second registration panics.
func (c *Cache) OnEviction(fn func(victimAddr uint64, dirty bool)) {
	if c.onEvict != nil {
		panic("cache: second eviction observer")
	}
	c.onEvict = fn
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> c.lineBits
	return lineAddr & c.setMask, lineAddr >> 0
}

// Result describes the outcome of an access.
type Result struct {
	Hit bool
	// Evicted reports that a valid victim line was displaced.
	Evicted bool
	// Writeback reports that the victim was dirty and must be written to
	// memory; VictimAddr is its line address.
	Writeback  bool
	VictimAddr uint64
}

// Access performs a read (write=false) or write (write=true) of the line
// containing addr, allocating on miss, and returns what happened. The
// caller charges timing for misses and writebacks.
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.index(addr)
	lines := c.sets[set]
	c.clock++
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.clock
			if write {
				lines[i].dirty = true
			}
			c.stats.Hits++
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	// Choose victim: invalid way first, else LRU.
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	res := Result{}
	if lines[victim].valid {
		res.Evicted = true
		c.stats.Evictions++
		if lines[victim].dirty {
			res.Writeback = true
			res.VictimAddr = c.lineAddr(set, lines[victim].tag)
			c.stats.Writebacks++
		}
		if c.onEvict != nil {
			c.onEvict(c.lineAddr(set, lines[victim].tag), lines[victim].dirty)
		}
	}
	lines[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return res
}

// lineAddr reconstructs a byte address from set and tag.
func (c *Cache) lineAddr(set, tag uint64) uint64 {
	// tag includes the set bits (we keep the full line address as tag and
	// mask at lookup), so reconstruct directly from the tag.
	return tag << c.lineBits
}

// Contains reports whether the line holding addr is present (no LRU
// update) — a test/debug helper.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache, returning the number of dirty lines
// that a real flush would write back.
func (c *Cache) Flush() (writebacks int) {
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid && c.sets[si][wi].dirty {
				writebacks++
			}
			c.sets[si][wi] = line{}
		}
	}
	return writebacks
}
