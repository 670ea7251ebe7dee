package sim

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
// is exactly the behaviour of a lease: each renewal moves the expiry event
// (Kernel.Postpone), so a lease renewed many times per expiry still owns
// one queue entry. Like Ticker it is an embedded value prepared once with
// Init — never copied, Rearm after Kernel.Reset — and arming it allocates
// nothing.
type Deadline struct {
	_       noCopy
	k       *Kernel
	fn      func(any)
	arg     any
	pending *Event
}

// Init prepares an unarmed deadline that runs fn(arg) when it expires.
func (d *Deadline) Init(k *Kernel, fn func(any), arg any) {
	d.k, d.fn, d.arg = k, fn, arg
}

// deadlineFire is the static kernel callback shared by every deadline.
func deadlineFire(x any) { x.(*Deadline).fire() }

// Set arms (or re-arms) the deadline to fire at absolute time t.
func (d *Deadline) Set(t Time) {
	// pending is non-nil only while the event is live: fire and Clear nil it.
	if d.pending != nil && t >= d.pending.at {
		d.k.Postpone(d.pending, t)
		return
	}
	d.pending.Cancel()
	d.pending = d.k.AtArg(t, deadlineFire, d)
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

// Armed reports whether the deadline is set and has not fired.
func (d *Deadline) Armed() bool { return d.pending != nil && !d.pending.Canceled() }

// When reports the expiry instant; valid only while Armed.
func (d *Deadline) When() Time {
	if d.pending == nil {
		return 0
	}
	return d.pending.At()
}

func (d *Deadline) fire() {
	// Pooled-event ownership: drop the fired event before fn, so a
	// Set/Clear from inside the callback never cancels a recycled event.
	d.pending = nil
	d.fn(d.arg)
}
