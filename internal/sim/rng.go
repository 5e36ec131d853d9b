package sim

// RNG is a small, seedable, deterministic pseudo-random generator
// (xorshift64*). Every source of randomness in the simulator flows
// through one of these so runs are reproducible from a seed; we avoid
// math/rand so the stream is stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value. A zero seed
// is remapped to a fixed non-zero constant (xorshift state must be
// non-zero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint32n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("sim: RNG.Uint32n with zero n")
	}
	return uint32(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a pseudo-random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }
