package sim

import "fmt"

// noCopy marks a type that must not be copied after first use: `go vet`'s
// copylocks check flags any assignment, argument or range copy of a value
// containing one. Embedded timers are armed with a pointer to themselves
// (the kernel event's argument), so a copy would leave the pending event
// aimed at the original while the copy believes it owns it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Ticker fires a callback periodically. Protocol models use tickers for
// announcement trains, lease renewals and retransmission schedules; all of
// them need to be stoppable and restartable when interface state changes.
//
// A Ticker is a value embedded in its owner and prepared once with Init:
// the callback is a static function taking the owner as its argument, and
// scheduling goes through a static kernel callback with the ticker itself
// as the argument, so neither construction nor firing allocates. Init
// once, never copy, Rearm after Kernel.Reset.
type Ticker struct {
	_       noCopy
	k       *Kernel
	period  Duration
	fn      func(any)
	arg     any
	pending *Event // nil ⇔ stopped
}

// Init prepares a stopped ticker that calls fn(arg) every period; call
// Start to arm it.
func (t *Ticker) Init(k *Kernel, period Duration, fn func(any), arg any) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.k, t.period, t.fn, t.arg = k, period, fn, arg
}

// tickerFire is the static kernel callback shared by every ticker.
func tickerFire(x any) { x.(*Ticker).tick() }

// Start arms the ticker. The first firing happens after initialDelay, and
// subsequent firings every period. Starting a running ticker re-arms it
// from now.
func (t *Ticker) Start(initialDelay Duration) {
	t.pending.Cancel()
	t.pending = t.k.AfterArg(initialDelay, tickerFire, t)
}

func (t *Ticker) tick() {
	if t.pending == nil {
		return // rearmed without a Kernel.Reset: a stale event
	}
	// Pooled-event ownership: the event that invoked us has fired and
	// will be recycled; overwrite the reference before running fn so
	// Stop/Start never cancel a recycled event. (A stopped ticker never
	// reaches here — Stop cancels the pending event.)
	t.pending = t.k.AfterArg(t.period, tickerFire, t)
	t.fn(t.arg)
}

// Stop disarms the ticker. A stopped ticker can be started again.
func (t *Ticker) Stop() {
	t.pending.Cancel()
	t.pending = nil
}

// Rearm resets the ticker for workspace reuse after a Kernel.Reset: the
// retained event reference is dropped without touching the kernel (the
// event no longer exists) and the ticker returns to its stopped state.
func (t *Ticker) Rearm() { t.pending = nil }

// Running reports whether the ticker is armed.
func (t *Ticker) Running() bool { return t.pending != nil }

// Period reports the ticker's firing interval.
func (t *Ticker) Period() Duration { return t.period }

// Deadline is a single-shot timer that can be pushed into the future, which
// is exactly the behaviour of a lease. Like Ticker it is an embedded value
// prepared once with Init — never copied, Rearm after Kernel.Reset — and
// arming it allocates nothing.
//
// A renewal to a later (or the same) instant is lazy and touches only the
// Deadline: it stores the new key — the instant and a fresh sequence
// number, so the expiry fires after everything already scheduled for that
// instant, exactly as if it had been canceled and scheduled again — and
// leaves the queued event where it is, under its old key. The kernel reads
// the true key from here when that stale slot reaches the front of the
// queue and re-queues the event under it (Kernel.settled). So a lease
// renewed many times per expiry owns one queue entry, and a renewal never
// writes the pooled event, which lies nowhere near the lease's owner. A
// renewal to an earlier instant cancels the event and schedules a new one.
type Deadline struct {
	_       noCopy
	k       *Kernel
	fn      func(any)
	arg     any
	pending *Event // nil ⇔ not armed
	// at and seq are the pending expiry's true key; the event's own key
	// may lag behind them.
	at  Time
	seq uint64
}

// Init prepares an unarmed deadline that runs fn(arg) when it expires.
func (d *Deadline) Init(k *Kernel, fn func(any), arg any) {
	d.k, d.fn, d.arg = k, fn, arg
}

// deadlineFire is the static kernel callback shared by every deadline.
func deadlineFire(x any) { x.(*Deadline).fire() }

// Set arms (or re-arms) the deadline to fire at absolute time t. Setting it
// behind the clock panics, as scheduling there does.
func (d *Deadline) Set(t Time) {
	// pending is non-nil only while the event is live: fire and Clear nil it.
	if d.pending != nil && t >= d.at {
		k := d.k
		if t < k.now {
			panic(fmt.Sprintf("sim: renewing deadline at %v to %v (now %v)", d.at, t, k.now))
		}
		d.at, d.seq = t, k.seq
		k.seq++
		return
	}
	e := d.k.AtArg(t, deadlineFire, d)
	e.keyed = true
	d.pending.Cancel()
	d.pending, d.at, d.seq = e, e.at, e.seq
}

// SetAfter arms (or re-arms) the deadline to fire dur from now.
func (d *Deadline) SetAfter(dur Duration) { d.Set(d.k.Now() + dur) }

// Clear disarms the deadline.
func (d *Deadline) Clear() {
	d.pending.Cancel()
	d.pending = nil
}

// Rearm drops the retained event reference without touching the kernel,
// for workspace reuse after a Kernel.Reset.
func (d *Deadline) Rearm() { d.pending = nil }

// When reports the expiry instant, 0 if the deadline is not armed.
func (d *Deadline) When() Time {
	if d.pending == nil {
		return 0
	}
	return d.at
}

func (d *Deadline) fire() {
	// Pooled-event ownership: drop the fired event before fn, so a
	// Set/Clear from inside the callback never cancels a recycled event.
	d.pending = nil
	d.fn(d.arg)
}
