package sim

// Server models a work-conserving FIFO resource that serves one job at a
// time (a link serializing bytes, a DRAM data bus, a CPU issuing one command
// per cycle). Jobs occupy the server for a caller-provided service time and
// a callback fires when service completes.
type Server struct {
	k      *Kernel
	freeAt Time
	// Busy accounting for utilization reporting.
	busy    Duration
	served  uint64
	maxWait Duration
}

// NewServer returns an idle server attached to k.
func NewServer(k *Kernel) *Server { return &Server{k: k} }

// ServeH enqueues a job with the given service time and schedules
// h.Handle(arg) at its completion instant, which is also returned. A nil h
// schedules nothing: the job only occupies the server. Jobs are served in
// arrival order.
func (s *Server) ServeH(service Duration, h Handler, arg uint64) Time {
	if service < 0 {
		panic("sim: negative service time")
	}
	start := s.k.Now()
	if s.freeAt > start {
		wait := s.freeAt.Sub(start)
		if wait > s.maxWait {
			s.maxWait = wait
		}
		start = s.freeAt
	}
	end := start.Add(service)
	s.freeAt = end
	s.busy += service
	s.served++
	if h != nil {
		s.k.AtH(end, h, arg)
	}
	return end
}

// FreeAt returns the instant at which the server next becomes idle.
func (s *Server) FreeAt() Time { return s.freeAt }

// Served returns the number of jobs accepted so far.
func (s *Server) Served() uint64 { return s.served }

// BusyTime returns the cumulative service time accepted so far.
func (s *Server) BusyTime() Duration { return s.busy }

// MaxWait returns the largest queueing delay observed so far.
func (s *Server) MaxWait() Duration { return s.maxWait }

// Utilization returns busy time divided by elapsed, where elapsed is
// measured from simulation start to now.
func (s *Server) Utilization() float64 {
	now := s.k.Now()
	if now == 0 {
		return 0
	}
	return s.busy.Seconds() / Time(now).Seconds()
}

// CreditPool is a counted semaphore with a FIFO waiter queue, used to model
// MSHR slots and OpenCAPI link credits. AcquireH either succeeds
// immediately or parks the handler until a credit is released.
type CreditPool struct {
	k        *Kernel
	capacity int
	avail    int
	waiters  []waiter
	// peakWaiters tracks the deepest backlog for diagnostics.
	peakWaiters int
	acquires    uint64
}

// waiter is one parked acquirer.
type waiter struct {
	h   Handler
	arg uint64
}

// NewCreditPool returns a pool with the given capacity, all credits
// available.
func NewCreditPool(k *Kernel, capacity int) *CreditPool {
	if capacity <= 0 {
		panic("sim: CreditPool capacity must be positive")
	}
	return &CreditPool{k: k, capacity: capacity, avail: capacity}
}

// Capacity returns the configured credit count.
func (p *CreditPool) Capacity() int { return p.capacity }

// Available returns the number of free credits.
func (p *CreditPool) Available() int { return p.avail }

// InUse returns the number of credits currently held.
func (p *CreditPool) InUse() int { return p.capacity - p.avail }

// Waiting returns the number of parked acquirers.
func (p *CreditPool) Waiting() int { return len(p.waiters) }

// PeakWaiting returns the deepest waiter backlog observed.
func (p *CreditPool) PeakWaiting() int { return p.peakWaiters }

// Acquires returns the number of successful acquisitions so far.
func (p *CreditPool) Acquires() uint64 { return p.acquires }

// AcquireH grants a credit to h: h.Handle(arg) runs synchronously if a
// credit is free, otherwise the pair is parked until a holder releases.
// Grants are FIFO.
func (p *CreditPool) AcquireH(h Handler, arg uint64) {
	if p.avail > 0 {
		p.avail--
		p.acquires++
		h.Handle(arg)
		return
	}
	p.waiters = append(p.waiters, waiter{h: h, arg: arg})
	if len(p.waiters) > p.peakWaiters {
		p.peakWaiters = len(p.waiters)
	}
}

// TryAcquire takes a credit without blocking and reports whether it
// succeeded.
func (p *CreditPool) TryAcquire() bool {
	if p.avail > 0 {
		p.avail--
		p.acquires++
		return true
	}
	return false
}

// Release returns one credit, handing it to the oldest waiter if any. The
// waiter runs as a fresh kernel event at the current instant, keeping grant
// chains shallow and causally ordered.
func (p *CreditPool) Release() {
	if len(p.waiters) > 0 {
		w := p.waiters[0]
		copy(p.waiters, p.waiters[1:])
		p.waiters[len(p.waiters)-1] = waiter{} // release callback refs for GC
		p.waiters = p.waiters[:len(p.waiters)-1]
		p.acquires++
		p.k.PostH(w.h, w.arg)
		return
	}
	p.avail++
	if p.avail > p.capacity {
		panic("sim: CreditPool over-released")
	}
}
