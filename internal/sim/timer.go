package sim

// Ticker fires a callback periodically. Protocol models use tickers for
// announcement trains, lease renewals and retransmission schedules; all of
// them need to be stoppable and restartable when interface state changes.
//
// Scheduling goes through a static callback with the ticker itself as the
// argument (AfterArg), so arming and re-arming never allocates a closure:
// a ticker costs its construction and nothing per firing.
type Ticker struct {
	k       *Kernel
	period  Duration
	fn      func()
	pending *Event
	running bool
}

// NewTicker creates a stopped ticker; call Start to arm it.
func NewTicker(k *Kernel, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	return &Ticker{k: k, period: period, fn: fn}
}

// tickerFire is the static kernel callback shared by every ticker.
func tickerFire(x any) { x.(*Ticker).tick() }

// Start arms the ticker. The first firing happens after initialDelay, and
// subsequent firings every period. Starting a running ticker re-arms it
// from now.
func (t *Ticker) Start(initialDelay Duration) {
	t.pending.Cancel()
	t.running = true
	t.pending = t.k.AfterArg(initialDelay, tickerFire, t)
}

func (t *Ticker) tick() {
	if !t.running {
		return
	}
	// Pooled-event ownership: the event that invoked us has fired and
	// will be recycled; overwrite the reference before running fn so
	// Stop/Start never cancel a recycled event. (A stopped ticker never
	// reaches here — Stop cancels the pending event.)
	t.pending = t.k.AfterArg(t.period, tickerFire, t)
	t.fn()
}

// Stop disarms the ticker. A stopped ticker can be started again.
func (t *Ticker) Stop() {
	t.running = false
	t.pending.Cancel()
	t.pending = nil
}

// Rearm resets the ticker for workspace reuse after a Kernel.Reset: the
// retained event reference is dropped without touching the kernel (the
// event no longer exists) and the ticker returns to its stopped state.
func (t *Ticker) Rearm() {
	t.running = false
	t.pending = nil
}

// Running reports whether the ticker is armed.
func (t *Ticker) Running() bool { return t.running }

// Period reports the ticker's firing interval.
func (t *Ticker) Period() Duration { return t.period }

// SetPeriod changes the interval used for firings scheduled after the next
// one. Used by adaptive retransmission schedules.
func (t *Ticker) SetPeriod(p Duration) {
	if p <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.period = p
}

// Deadline is a single-shot timer that can be pushed into the future, which
// is exactly the behaviour of a lease: each renewal moves the expiry event
// (Kernel.Postpone), so a lease renewed many times per expiry still owns
// one queue entry. Like Ticker, it schedules through a static callback, so
// arming a deadline allocates nothing.
type Deadline struct {
	k       *Kernel
	fn      func()
	pending *Event
}

// NewDeadline creates an unarmed deadline that runs fn when it expires.
func NewDeadline(k *Kernel, fn func()) *Deadline {
	return &Deadline{k: k, fn: fn}
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
	d.fn()
}
