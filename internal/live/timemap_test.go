package live

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestTimeMapLargeOffsets pins the integer wall↔virtual mapping at
// offsets past 2^53 nanoseconds, where the float64 mapping it replaced
// lost integer precision and drifted.
func TestTimeMapLargeOffsets(t *testing.T) {
	t0 := time.Unix(0, 0)
	v0 := sim.Time(7 * sim.Second)

	// Dilation 0.5: every wall nanosecond is exactly two virtual ones.
	tm := newTimeMap(t0, v0, 0.5)
	// (1<<60)+1 ns ≈ 36.6 wall-years; float64 cannot represent the +1.
	off := int64(1<<60 + 1)
	got := tm.vAt(t0.Add(time.Duration(off)))
	want := v0 + sim.Time(2*off)
	if got != want {
		t.Fatalf("vAt at 2^60+1 ns: got %d, want %d (drift %d ns)", got, want, int64(got-want))
	}
	// Round trip back to the exact wall instant.
	if back := tm.wallAt(want); !back.Equal(t0.Add(time.Duration(off))) {
		t.Fatalf("wallAt round trip: got %v, want %v", back, t0.Add(time.Duration(off)))
	}

	// Dilation 0.001 (the sdlived fast mode): 1 wall ms per virtual s.
	tm = newTimeMap(t0, 0, 0.001)
	off = int64(1<<53 + 3)
	got = tm.vAt(t0.Add(time.Duration(off)))
	want = sim.Time(off * 1000)
	if got != want {
		t.Fatalf("vAt dilation 0.001: got %d, want %d", got, want)
	}

	// Monotonicity across consecutive nanoseconds at a large offset: the
	// float path could map a later wall instant to an earlier virtual
	// time, violating the non-decreasing Run horizons of the drain.
	base := t0.Add(time.Duration(int64(1) << 58))
	prev := tm.vAt(base)
	for i := 1; i <= 1000; i++ {
		v := tm.vAt(base.Add(time.Duration(i)))
		if v < prev {
			t.Fatalf("vAt went backwards at offset 2^58+%d", i)
		}
		prev = v
	}

	// Instants before t0 clamp to v0 instead of going negative.
	if v := tm.vAt(t0.Add(-time.Hour)); v != 0 {
		t.Fatalf("vAt before t0: got %d, want 0", v)
	}
}
