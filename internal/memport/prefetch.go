package memport

import (
	"thymesim/internal/ocapi"
)

// Prefetcher is a POWER9-style hardware stream prefetcher model: it
// watches the demand-miss address stream, confirms ascending sequential
// streams, and issues line fetches ahead of the demand pointer. Prefetches
// share the backend (and therefore the injector and link) with demand
// traffic but do not occupy MSHR window slots visible to the core —
// matching engines that use dedicated prefetch machines.
//
// The model is optimistic about fill visibility: a prefetched line is
// installed in the cache at issue time, so a demand access that arrives
// before the data would have landed still hits. Measurements with the
// prefetcher enabled are therefore an upper bound on its benefit; the
// ablation quantifies that bound.
type Prefetcher struct {
	h       *Hierarchy
	degree  int // lines fetched ahead once a stream is confirmed
	streams []pfStream
	// stats
	issued    uint64
	confirmed uint64
}

type pfStream struct {
	lastLine uint64
	hits     int
	nextPref uint64
	valid    bool
}

// maxStreams bounds tracked concurrent streams (POWER9 tracks 16/core).
const maxStreams = 16

// streamConfirm is the ascending-miss count that arms a stream.
const streamConfirm = 2

// AttachPrefetcher arms a stream prefetcher of the given degree on h.
// Degree 0 disables prefetching (returns nil).
func AttachPrefetcher(h *Hierarchy, degree int) *Prefetcher {
	if degree <= 0 {
		return nil
	}
	p := &Prefetcher{h: h, degree: degree}
	h.onMiss = p.observe
	return p
}

// Issued returns prefetch fetches launched.
func (p *Prefetcher) Issued() uint64 { return p.issued }

// Confirmed returns streams that reached the confirmation threshold.
func (p *Prefetcher) Confirmed() uint64 { return p.confirmed }

// observe processes one demand miss at line address addr.
func (p *Prefetcher) observe(addr uint64) {
	line := addr / ocapi.CacheLineSize
	// Match an existing stream expecting this line.
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		if line == s.lastLine+1 {
			s.lastLine = line
			s.hits++
			if s.hits == streamConfirm {
				p.confirmed++
				s.nextPref = line + 1
			}
			if s.hits >= streamConfirm {
				p.runAhead(s, line)
			}
			return
		}
	}
	// New stream: replace an invalid or the oldest slot.
	slot := -1
	for i := range p.streams {
		if !p.streams[i].valid {
			slot = i
			break
		}
	}
	if slot == -1 {
		if len(p.streams) < maxStreams {
			p.streams = append(p.streams, pfStream{})
			slot = len(p.streams) - 1
		} else {
			slot = 0 // crude replacement; fine for the model
		}
	}
	p.streams[slot] = pfStream{lastLine: line, valid: true}
}

// runAhead keeps the prefetch pointer degree lines ahead of the demand
// pointer, fetching through the cache so duplicates are filtered.
func (p *Prefetcher) runAhead(s *pfStream, demandLine uint64) {
	target := demandLine + uint64(p.degree)
	for s.nextPref <= target {
		addr := s.nextPref * ocapi.CacheLineSize
		s.nextPref++
		res := p.h.llc.Access(addr, false)
		if res.Writeback {
			p.h.stats.Writebacks++
			p.h.stats.BytesMoved += ocapi.CacheLineSize
			p.h.backend.WriteLine(res.VictimAddr, nil, 0)
		}
		if res.Hit {
			continue
		}
		p.issued++
		p.h.stats.BytesMoved += ocapi.CacheLineSize
		p.h.backend.ReadLine(addr, 0, nil, 0)
	}
}
