package core

import "repro/internal/sim"

// RetryPolicy shapes a retransmission schedule for acknowledged
// notifications.
//
// SRN1 uses a finite Limit ("retransmissions ... until retransmission
// limit is reached"); SRC1 uses Limit == 0, unlimited ("we propose no
// retransmission limit for the notification messages"), in which case the
// caller must stop the retry when the subscription expires or the service
// changes again.
type RetryPolicy struct {
	// Interval spaces the transmissions ("update retransmissions can be
	// spaced in a periodic manner").
	Interval sim.Duration
	// Limit is the maximum number of transmissions including the first;
	// zero means unlimited.
	Limit int
	// Cap, when positive, replaces the fixed spacing with capped
	// decorrelated jitter (see Backoff): the first gap stays near
	// Interval, later gaps spread out in [Interval, min(Cap, 3·prev)),
	// drawn from the kernel RNG. Zero keeps the paper's periodic
	// schedule and draws nothing; only a hardened run sets it, to
	// HardenedRetryCap.
	Cap sim.Duration
}

// HardenedRetryCap is the Cap a hardened run gives FRODO's notification
// and control retry schedules.
const HardenedRetryCap = 120 * sim.Second

// Retry drives one acknowledged transmission: it sends immediately on
// Start and retransmits on the policy's schedule until stopped (ack
// received, superseded, lease expired) or exhausted. A Retry is a value
// embedded in its owner and prepared once with Init: its callbacks are
// static functions taking the owner, and the retransmission timer goes
// through a static kernel callback, so neither the schedule nor an
// attempt allocates. Like the sim timers it must not be copied once
// started, and is Rearmed after a Kernel.Reset.
type Retry struct {
	k           *sim.Kernel
	policy      RetryPolicy
	send        func(owner any, attempt int)
	onExhausted func(owner any)
	owner       any

	sent    int
	timer   *sim.Event
	active  bool
	prevGap sim.Duration // last jittered gap when policy.Cap > 0
}

// Init prepares the schedule in place. send(owner, attempt) transmits one
// attempt (1-based); onExhausted(owner), which may be nil, runs when a
// finite policy runs out of attempts — for FRODO this is the hand-off
// from SRN1 to SRN2.
func (r *Retry) Init(k *sim.Kernel, policy RetryPolicy, send func(owner any, attempt int), onExhausted func(owner any), owner any) {
	if policy.Interval <= 0 {
		panic("core: retry interval must be positive")
	}
	r.k = k
	r.policy = policy
	r.send = send
	r.onExhausted = onExhausted
	r.owner = owner
	r.sent = 0
	r.timer = nil
	r.active = false
	r.prevGap = 0
}

// SetPolicy replaces the schedule used by future Starts.
func (r *Retry) SetPolicy(policy RetryPolicy) {
	if policy.Interval <= 0 {
		panic("core: retry interval must be positive")
	}
	r.policy = policy
}

// retryFire is the static kernel callback shared by every retry schedule.
func retryFire(x any) { x.(*Retry).attempt() }

// Start performs the first transmission and arms the schedule. Starting an
// active retry restarts its attempt count.
func (r *Retry) Start() {
	r.Stop()
	r.active = true
	r.sent = 0
	r.prevGap = 0
	r.attempt()
}

// nextGap computes the delay before the following attempt: the policy's
// fixed Interval, or a capped decorrelated-jitter gap when Cap is set.
func (r *Retry) nextGap() sim.Duration {
	if r.policy.Cap <= 0 {
		return r.policy.Interval
	}
	lo := r.policy.Interval
	hi := 3 * r.prevGap
	if r.prevGap == 0 {
		hi = 2 * lo
	}
	if hi > r.policy.Cap {
		hi = r.policy.Cap
	}
	gap := lo
	if hi > lo {
		gap = r.k.UniformDuration(lo, hi)
	}
	r.prevGap = gap
	return gap
}

func (r *Retry) attempt() {
	// Pooled-event ownership rule: when attempt runs off the timer, that
	// event has fired and the kernel will recycle it — drop the reference
	// now so a later Stop cannot cancel a recycled (foreign) event. In
	// particular the exhausted branch below used to leave the fired event
	// in r.timer forever.
	r.timer = nil
	if !r.active {
		return
	}
	if r.policy.Limit > 0 && r.sent >= r.policy.Limit {
		r.active = false
		if r.onExhausted != nil {
			r.onExhausted(r.owner)
		}
		return
	}
	r.sent++
	r.send(r.owner, r.sent)
	r.timer = r.k.AfterArg(r.nextGap(), retryFire, r)
}

// Stop halts retransmission: the acknowledgement arrived, the
// subscription expired, or the notification was superseded by a newer
// change.
func (r *Retry) Stop() {
	r.active = false
	r.timer.Cancel() // always pending (or nil): attempt nils the fired event
	r.timer = nil
}

// Rearm resets the schedule for workspace reuse after a Kernel.Reset: the
// retained event reference is dropped without touching the kernel.
func (r *Retry) Rearm() {
	r.active = false
	r.timer = nil
	r.sent = 0
	r.prevGap = 0
}

// Active reports whether the schedule is still running.
func (r *Retry) Active() bool { return r.active }
