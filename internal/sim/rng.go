package sim

// splitmix64 is the kernel's random source: Sebastiano Vigna's SplitMix64
// (the seeding generator of the xoshiro family, and the stream-splitting
// step of PCG-style generators). One 64-bit word of state, a three-xor
// output mix, full 2^64 period, and it passes BigCrush — more than enough
// for drawing delays and failure times, at a fraction of the cost of the
// stdlib's default source:
//
//   - seeding is one store, where rand.NewSource fills a 607-word lagged
//     Fibonacci table (a sweep creates one kernel per run, thousands per
//     experiment, so per-kernel seeding is on the hot path);
//   - state is 8 bytes instead of ~5 KiB per kernel;
//   - Uint64 is an add and three xor-shift-multiplies, branch-free.
//
// It implements math/rand.Source64, so the kernel keeps exposing the
// familiar *rand.Rand API while every draw bottoms out here. The two
// draws every frame makes — a delay and a loss decision — skip that
// facade: int63n and float64 are math/rand's Int63n and Float64 on this
// source, value for value, without the interface call
// (TestDirectDrawsMatchRand).
type splitmix64 struct {
	state uint64
	// n and max memoize int63n's rejection bound for the last range it
	// drew from that is not a power of two: a run draws its frame delays
	// from one range, so the bound's 64-bit division is paid once.
	n, max int64
}

// Seed resets the stream. Part of the rand.Source interface.
func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 advances the stream. Part of the rand.Source64 interface.
func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Int63 is the rand.Source interface's 63-bit draw.
func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// int63n is math/rand's Rand.Int63n: a mask for a power of two, else
// rejection of the top partial range, then a modulus.
func (s *splitmix64) int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	if n != s.n {
		s.n, s.max = n, int64((1<<63)-1-(1<<63)%uint64(n))
	}
	v := s.Int63()
	for v > s.max {
		v = s.Int63()
	}
	return v % n
}

// float64 is math/rand's Rand.Float64: a 63-bit draw scaled to [0, 1),
// drawn again in the rare case the division rounds up to 1.
func (s *splitmix64) float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
