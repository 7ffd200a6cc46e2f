package sim

import (
	"testing"
	"testing/quick"
)

func TestServerSerializesFIFO(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	var done []Time
	k.At(0, func() {
		s.ServeH(10, Func(func() { done = append(done, k.Now()) }), 0)
		s.ServeH(5, Func(func() { done = append(done, k.Now()) }), 0)
	})
	k.At(3, func() {
		s.ServeH(7, Func(func() { done = append(done, k.Now()) }), 0)
	})
	k.Run()
	want := []Time{10, 15, 22}
	if len(done) != 3 {
		t.Fatalf("completions = %v", done)
	}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
	if s.Served() != 3 {
		t.Errorf("served = %d", s.Served())
	}
	if s.BusyTime() != 22 {
		t.Errorf("busy = %v, want 22", s.BusyTime())
	}
}

func TestServerIdleGap(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	k.At(0, func() { s.ServeH(10, nil, 0) })
	var at Time
	k.At(100, func() { s.ServeH(10, Func(func() { at = k.Now() }), 0) })
	k.Run()
	if at != 110 {
		t.Fatalf("second job finished at %v, want 110 (server idles between jobs)", at)
	}
	if s.MaxWait() != 0 {
		t.Errorf("max wait = %v, want 0", s.MaxWait())
	}
}

func TestServerUtilization(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	k.At(0, func() { s.ServeH(Duration(500*Millisecond), nil, 0) })
	k.RunUntil(Time(Second))
	u := s.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestServerNegativeServicePanics(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	defer func() {
		if recover() == nil {
			t.Error("negative service did not panic")
		}
	}()
	s.ServeH(-1, nil, 0)
}

// TestServeHNilHandlerSchedulesNothing pins that a nil handler only
// occupies the server: no completion event is queued or dispatched, so
// Pending and Processed match a kernel that never saw the job.
func TestServeHNilHandlerSchedulesNothing(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	end := s.ServeH(10, nil, 0)
	if end != 10 || s.FreeAt() != 10 || s.Served() != 1 {
		t.Fatalf("end=%v freeAt=%v served=%d, want 10/10/1", end, s.FreeAt(), s.Served())
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after nil-handler job, want 0", k.Pending())
	}
	k.Run()
	if k.Processed() != 0 || k.Now() != 0 {
		t.Fatalf("processed=%d now=%v, want 0/0", k.Processed(), k.Now())
	}
}

func TestCreditPoolImmediateAndQueued(t *testing.T) {
	k := NewKernel()
	p := NewCreditPool(k, 2)
	var got []int
	take := func(id int) { p.AcquireH(Func(func() { got = append(got, id) }), 0) }
	k.At(0, func() {
		take(1)
		take(2)
		take(3) // must wait
		if p.Available() != 0 || p.Waiting() != 1 {
			t.Errorf("avail=%d waiting=%d", p.Available(), p.Waiting())
		}
	})
	k.At(10, func() { p.Release() })
	k.Run()
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("grants = %v", got)
	}
	if p.InUse() != 2 {
		t.Errorf("in use = %d, want 2", p.InUse())
	}
	if p.PeakWaiting() != 1 {
		t.Errorf("peak waiting = %d, want 1", p.PeakWaiting())
	}
}

func TestCreditPoolTryAcquire(t *testing.T) {
	k := NewKernel()
	p := NewCreditPool(k, 1)
	if !p.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if p.TryAcquire() {
		t.Fatal("second TryAcquire succeeded on empty pool")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestCreditPoolOverReleasePanics(t *testing.T) {
	k := NewKernel()
	p := NewCreditPool(k, 1)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	p.Release()
}

func TestCreditPoolFIFOGrants(t *testing.T) {
	k := NewKernel()
	p := NewCreditPool(k, 1)
	var got []int
	k.At(0, func() {
		for i := 0; i < 5; i++ {
			i := i
			p.AcquireH(Func(func() {
				got = append(got, i)
				k.After(10, p.Release)
			}), 0)
		}
	})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("grant order = %v, not FIFO", got)
		}
	}
}

// Property: a server is work-conserving — total completion time of n
// back-to-back jobs equals the sum of service times.
func TestServerWorkConservingProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		k := NewKernel()
		s := NewServer(k)
		var sum Duration
		var last Time
		k.At(0, func() {
			for _, r := range raw {
				d := Duration(r)
				sum += d
				last = s.ServeH(d, Func(func() {}), 0)
			}
		})
		end := k.Run()
		if len(raw) == 0 {
			return end == 0
		}
		return end == Time(sum) && last == Time(sum) && s.FreeAt() == Time(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a credit pool never grants more than capacity concurrently.
func TestCreditPoolCapacityProperty(t *testing.T) {
	f := func(cap8 uint8, jobs uint8) bool {
		capacity := int(cap8%16) + 1
		n := int(jobs)
		k := NewKernel()
		p := NewCreditPool(k, capacity)
		inUse, maxUse := 0, 0
		k.At(0, func() {
			for i := 0; i < n; i++ {
				p.AcquireH(Func(func() {
					inUse++
					if inUse > maxUse {
						maxUse = inUse
					}
					k.After(Duration(1+i%7), func() {
						inUse--
						p.Release()
					})
				}), 0)
			}
		})
		k.Run()
		return maxUse <= capacity && inUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(7)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Errorf("bucket %d = %d, expected ~%d", i, b, n/10)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.97 || mean > 1.03 {
		t.Fatalf("exp mean = %v, want ~1", mean)
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(13)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("norm mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("norm var = %v, want ~1", variance)
	}
}

func TestRandSplitIndependence(t *testing.T) {
	parent := NewRand(21)
	a := parent.Split()
	b := parent.Split()
	equal := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("split streams overlap: %d equal draws", equal)
	}
}

func TestRandPanics(t *testing.T) {
	r := NewRand(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Int63n(-5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
