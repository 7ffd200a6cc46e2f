package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (SplitMix64). Every stochastic component of the simulator draws from an
// explicitly seeded Rand so that runs are reproducible; the global
// math/rand source is never used.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Split derives an independent generator from r's current state. It is the
// preferred way to hand child components their own stream.
func (r *Rand) Split() *Rand { return NewRand(r.Uint64() ^ 0x9e3779b97f4a7c15) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u <= 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
