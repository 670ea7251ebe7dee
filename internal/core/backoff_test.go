package core

import (
	"testing"

	"repro/internal/sim"
)

func TestBackoffBoundsAndGrowth(t *testing.T) {
	k := sim.New(1)
	var b Backoff
	b.Init(k, 10*sim.Second, 80*sim.Second)
	first := b.Next()
	if first < 10*sim.Second || first >= 20*sim.Second {
		t.Fatalf("first delay %v outside [base, 2*base)", first)
	}
	prev := first
	for i := 0; i < 50; i++ {
		d := b.Next()
		if d < 10*sim.Second || d > 80*sim.Second {
			t.Fatalf("delay %v outside [base, cap]", d)
		}
		hi := 3 * prev
		if hi > 80*sim.Second {
			hi = 80 * sim.Second
		}
		if d > hi {
			t.Fatalf("delay %v exceeds decorrelation bound 3*prev=%v", d, hi)
		}
		prev = d
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []sim.Duration {
		k := sim.New(seed)
		var b Backoff
		b.Init(k, sim.Second, 60*sim.Second)
		out := make([]sim.Duration, 20)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged under the same seed: %v vs %v", i, a[i], b[i])
		}
	}
	diverged := false
	for i, d := range draw(8) {
		if d != a[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds produced the identical schedule")
	}
}

func TestBackoffReset(t *testing.T) {
	k := sim.New(1)
	var b Backoff
	b.Init(k, 10*sim.Second, 300*sim.Second)
	for i := 0; i < 10; i++ {
		b.Next()
	}
	b.Reset()
	if d := b.Next(); d >= 20*sim.Second {
		t.Errorf("post-Reset delay %v, want back in [base, 2*base)", d)
	}
}

func TestBackoffRejectsBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cap < base accepted")
		}
	}()
	var b Backoff
	b.Init(sim.New(1), 10*sim.Second, 5*sim.Second)
}

// A capped policy's gaps stay within [Interval, Cap] and replay
// identically per seed — the property hardened runs lean on.
func TestRetryCapJitteredGaps(t *testing.T) {
	gaps := func(seed int64) []sim.Duration {
		k := sim.New(seed)
		var times []sim.Time
		r := newRetry(k, RetryPolicy{Interval: 5 * sim.Second, Limit: 8, Cap: 30 * sim.Second},
			func(int) { times = append(times, k.Now()) }, nil)
		r.Start()
		k.Run(1000 * sim.Second)
		out := make([]sim.Duration, 0, len(times)-1)
		for i := 1; i < len(times); i++ {
			out = append(out, sim.Duration(times[i]-times[i-1]))
		}
		return out
	}
	a := gaps(3)
	if len(a) != 7 {
		t.Fatalf("got %d gaps, want 7 (Limit 8 transmissions)", len(a))
	}
	for i, g := range a {
		if g < 5*sim.Second || g > 30*sim.Second {
			t.Errorf("gap %d = %v outside [Interval, Cap]", i, g)
		}
	}
	b := gaps(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d diverged under the same seed", i)
		}
	}
}
