package core

import "repro/internal/sim"

// Backoff computes capped decorrelated-jitter delays off the kernel RNG
// (AWS-style: next = min(cap, uniform[base, 3·prev))), so retries that
// collided once are spread apart on the next attempt instead of colliding
// forever. All randomness comes from the kernel's seeded RNG, so hardened
// runs stay deterministic per seed. The zero draws happen only when Next
// is called — an idle Backoff perturbs nothing.
type Backoff struct {
	k    *sim.Kernel
	base sim.Duration
	cap  sim.Duration
	prev sim.Duration
}

// Init prepares an embedded Backoff in place: a schedule starting at base
// and never exceeding cap.
func (b *Backoff) Init(k *sim.Kernel, base, cap sim.Duration) {
	if base <= 0 || cap < base {
		panic("core: backoff needs 0 < base <= cap")
	}
	b.k = k
	b.base = base
	b.cap = cap
	b.prev = 0
}

// Next draws the next delay. The first call after Reset returns a value
// in [base, 2·base); later calls decorrelate off the previous delay.
func (b *Backoff) Next() sim.Duration {
	hi := 3 * b.prev
	if b.prev == 0 {
		hi = 2 * b.base
	}
	if hi > b.cap {
		hi = b.cap
	}
	d := b.base
	if hi > b.base {
		d = b.k.UniformDuration(b.base, hi)
	}
	b.prev = d
	return d
}

// Reset returns the schedule to its initial state (next delay near base).
func (b *Backoff) Reset() { b.prev = 0 }
