package sim

import (
	"math"
	"math/rand"
	"testing"
)

// The kernel's direct draws are math/rand's on the same source, value for
// value and draw for draw: UniformDuration is Rand.Int63n and Float64 is
// Rand.Float64, interleaved as a frame interleaves a delay and a loss
// decision. The bounds cover the mask path (powers of two), small and
// frame-sized ranges, and n > 2⁶², where Int63n's rejection loop throws
// away up to half the draws — the two sources end at the same state, so
// every rejection was matched. Two draws in eight switch to the next
// bound of the list, so int63n's memoized rejection bound is reused, then
// replaced, then replaced back, and each of its states draws rand's
// stream.
func TestDirectDrawsMatchRand(t *testing.T) {
	const draws = 1_000_000
	const lo = Duration(17)
	bounds := []int64{
		2, 3, 10, 1 << 10, 90_001, 1<<20 + 1, 1 << 40, 1<<62 + 1, 1<<62 + 123_457, 3 << 61, math.MaxInt64 - int64(lo),
	}
	for i, n := range bounds {
		other := bounds[(i+1)%len(bounds)]
		k := New(int64(i))
		src := splitmix64{state: uint64(i)}
		ref := rand.New(&src)
		for d := 0; d < draws; d++ {
			m := n
			if d%8 >= 6 {
				m = other
			}
			if got, want := k.UniformDuration(lo, lo+Duration(m-1)), lo+Duration(ref.Int63n(m)); got != want {
				t.Fatalf("n=%d draw %d: UniformDuration %d, Rand.Int63n %d", m, d, got, want)
			}
			if got, want := k.Float64(), ref.Float64(); got != want {
				t.Fatalf("n=%d draw %d: Float64 %v, Rand.Float64 %v", n, d, got, want)
			}
		}
		if k.src.state != src.state {
			t.Errorf("n=%d: the streams ended at states %#x and %#x", n, k.src.state, src.state)
		}
	}
}

// Float64 draws again where the division rounds up to 1, as Rand.Float64
// does: a state whose next output is all ones (63 bits of 1 after the
// shift) must be skipped by both.
func TestDirectFloat64SkipsOne(t *testing.T) {
	k := New(0)
	k.src.state = unmix(math.MaxUint64) - 0x9E3779B97F4A7C15
	src := k.src
	if f := float64(src.Int63()) / (1 << 63); f != 1 {
		t.Fatalf("crafted state draws %v, not the rounding-up case", f)
	}
	src = k.src
	ref := rand.New(&src)
	if got, want := k.Float64(), ref.Float64(); got != want || got == 1 {
		t.Fatalf("Float64 %v, Rand.Float64 %v", got, want)
	}
	if k.src != src {
		t.Error("Float64 and Rand.Float64 consumed different numbers of draws")
	}
}

// unmix inverts splitmix64's output mix: the state increment that makes
// Uint64 return z.
func unmix(z uint64) uint64 {
	z = unxorshift(z, 31)
	z *= inverse(0x94D049BB133111EB)
	z = unxorshift(z, 27)
	z *= inverse(0xBF58476D1CE4E5B9)
	return unxorshift(z, 30)
}

// unxorshift inverts z ^= z >> s.
func unxorshift(z uint64, s uint) uint64 {
	x := z
	for i := uint(0); i < 64/s+1; i++ {
		x = z ^ x>>s
	}
	return x
}

// inverse is the multiplicative inverse of an odd a modulo 2⁶⁴ (Newton).
func inverse(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}
