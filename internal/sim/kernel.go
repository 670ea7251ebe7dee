package sim

import (
	"fmt"
	"math/rand"
)

// Event is a scheduled callback. It is returned by the scheduling methods
// so the caller can cancel it before it fires; timers that are renewed
// (lease expirations, retransmissions) rely on this.
//
// # Ownership
//
// Events are pooled: the kernel recycles an Event as soon as it has fired
// (or was popped after cancellation), and the same pointer will be handed
// out again by a later At/After call. A *Event is therefore only valid
//   - while the event is pending, and
//   - inside the event's own callback (the kernel recycles it only after
//     the callback returns, so a callback may Cancel or inspect its own
//     event, which is a no-op).
//
// Callers that retain timer events across firings (lease renewal,
// retransmission schedules) must drop their reference when the event
// fires — conventionally by setting the field to nil at the top of the
// callback — and must never Cancel a stored event after its firing time
// has passed. Cancel on a stale pointer would cancel whatever event
// currently owns the pooled slot. sim.Ticker, sim.Deadline, core.Retry
// and the netsim TCP machinery all follow this rule; use them instead of
// raw events where possible.
//
// The struct is exactly one 64-byte cache line (TestEventFitsCacheLine).
type Event struct {
	// at and seq are the key the event was scheduled under. A Deadline's
	// event (keyed) may fall behind its true key, which the Deadline
	// holds: a renewal writes only its owner's memory, and the kernel
	// copies the key in when the event's stale slot comes up (settled).
	at       Time
	seq      uint64 // tie-breaker: same-time events fire in schedule order
	fn       func()
	argFn    func(any)
	arg      any
	canceled bool
	keyed    bool   // arg is the *Deadline that holds the true key
	next     *Event // free-list link while recycled
}

// Cancel prevents the event from firing. Canceling an event that has
// already been canceled, or canceling from inside the event's own
// callback, is a no-op, so callers may cancel unconditionally — but see
// the ownership rule above: a pointer retained past the event's firing
// must not be canceled.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// heapSlot is one queue entry: the (time, seq) key the entry was sifted
// into place with, and the event. Keeping the key in the slot lets sift
// compare neighbouring slots without dereferencing their events. A
// Deadline renewal moves the true key (Deadline.at, Deadline.seq) ahead of
// the slot's: a keyed slot whose seq differs from its Deadline's is stale,
// and is re-sifted under the true key when it reaches the head.
type heapSlot struct {
	at  Time
	seq uint64
	e   *Event
}

// Kernel is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the experiment harness runs many kernels in parallel, one
// per goroutine, each fully owning its kernel.
//
// The event queue holds pooled events in two tiers: a sorted run of at
// most nearRun near events — due less than nearSpan after they were
// scheduled: frames and multicast copies — in front of a 4-ary min-heap
// for everything else — protocol timers, and near events that found the
// run full. The next event is the lesser of the two fronts (see front),
// so firing order is (time, seq) whichever tier an event sits in, while a
// frame costs a short insertion instead of a sift through the timers.
// Fired and canceled events go onto a free list and are reused by later
// schedule calls, so steady-state scheduling allocates nothing; the pool
// grows in chunks (see alloc), not one event per miss. Cancellation and
// postponement are lazy — a canceled event stays queued until its time
// comes and is then discarded and recycled; a renewed Deadline's event
// stays where it is until its old time comes and is then re-queued under
// the key its Deadline holds. The true key lives in the Deadline, not the
// event, so that a renewal — one per Central announcement per node, the
// bulk of a large run — writes only memory its owner has already loaded,
// never the pooled event, which lies nowhere near it.
type Kernel struct {
	now  Time
	seq  uint64
	heap []heapSlot
	// near is the run, sorted by descending (at, seq) so its next event,
	// near[nearN-1], pops off the end.
	near    [nearRun]heapSlot
	nearN   int
	free    *Event
	spare   []Event // the unused tail of the event pool's last chunk
	grown   int     // length of that chunk
	src     splitmix64
	rng     *rand.Rand
	stopped bool
	fired   uint64
	// limit and draining describe the drain in progress, for AdvanceTo.
	limit    Time
	draining bool
}

// nearSpan separates frames (10–100 µs) and multicast copies (1–5 ms)
// from protocol timers (TCP's 1 s minimum RTO, 120 s announcements,
// 1,800 s leases); nearRun bounds the run's insertion cost, so a queue
// whose run is always full (N=10k) behaves as the heap alone.
const (
	nearSpan = Second
	nearRun  = 32
)

// New creates a kernel whose random stream is derived from seed. Two
// kernels created with the same seed execute identically.
func New(seed int64) *Kernel {
	k := &Kernel{}
	k.src.Seed(seed)
	k.rng = rand.New(&k.src)
	return k
}

// Reset returns the kernel to its initial state with a fresh seed while
// keeping the event pool and heap capacity, so a worker goroutine can run
// many simulations back to back without reallocating. Pending events are
// discarded (and recycled). Events retained by the previous simulation
// are invalid after Reset, and so is a drain a panicking callback left
// unfinished.
func (k *Kernel) Reset(seed int64) {
	for _, s := range k.near[:k.nearN] {
		k.release(s.e)
	}
	for i := range k.heap {
		k.release(k.heap[i].e)
	}
	clear(k.near[:k.nearN])
	clear(k.heap)
	k.heap, k.nearN = k.heap[:0], 0
	k.now = 0
	k.seq = 0
	k.fired = 0
	k.stopped = false
	k.limit, k.draining = 0, false
	k.src.Seed(seed)
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random stream. All model
// randomness (delays, jitter, failure times) must come from this stream so
// runs replay exactly. The stream is backed by a SplitMix64 generator —
// constant-size state, no per-kernel seeding cost (the stdlib source seeds
// a 607-word lagged Fibonacci table per kernel, which dominates short
// runs when a sweep creates thousands of kernels).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired reports how many events have executed, a cheap progress and
// complexity measure used by tests and benchmarks.
func (k *Kernel) Fired() uint64 { return k.fired }

// alloc takes an event from the free list, or else the next unused one
// of the pool's last chunk, growing the pool by a chunk of 16 to 1,024
// events when both are empty (a paper-scale kernel stays in its first).
// The flags are cleared here, on reuse, rather than on release, so a
// canceled event keeps its mark until its slot is handed out again.
func (k *Kernel) alloc() *Event {
	e := k.free
	if e == nil {
		if len(k.spare) == 0 {
			k.spare = Chunk[Event](&k.grown, 16, 1024)
		}
		e, k.spare = &k.spare[0], k.spare[1:]
		return e
	}
	k.free = e.next
	e.next = nil
	e.canceled, e.keyed = false, false
	return e
}

// release clears an event and returns it to the free list. Clearing fn
// and arg matters: it releases the closure and its captures for GC even
// while the event sits in the pool.
func (k *Kernel) release(e *Event) {
	e.fn = nil
	e.argFn = nil
	e.arg = nil
	e.next = k.free
	k.free = e
}

// At schedules fn to run at absolute time t. Scheduling in the past (or at
// the current instant) panics: the models never need it and it always
// indicates a bug.
func (k *Kernel) At(t Time, fn func()) *Event {
	e := k.schedule(t)
	e.fn = fn
	return e
}

// AtArg schedules fn(arg) at absolute time t. Unlike At, the callback is
// a plain function plus an argument, so hot paths that would otherwise
// allocate a fresh closure per event (the netsim delivery path) can pass
// a pooled record through a static function for zero per-event
// allocations.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) *Event {
	e := k.schedule(t)
	e.argFn = fn
	e.arg = arg
	return e
}

func (k *Kernel) schedule(t Time) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	e := k.alloc()
	e.at = t
	e.seq = k.seq
	k.seq++
	k.push(e)
	return e
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// AfterArg schedules fn(arg) to run d from now. Negative d panics.
func (k *Kernel) AfterArg(d Duration, fn func(any), arg any) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.AtArg(k.now+d, fn, arg)
}

// UniformDuration draws a duration uniformly from [lo, hi].
func (k *Kernel) UniformDuration(lo, hi Duration) Duration {
	if hi < lo {
		panic(fmt.Sprintf("sim: invalid uniform range [%v, %v]", lo, hi))
	}
	if hi == lo {
		return lo
	}
	return lo + Duration(k.src.int63n(int64(hi-lo)+1))
}

// Float64 draws uniformly from [0, 1): the value Rand().Float64() would
// draw at this point of the stream.
func (k *Kernel) Float64() float64 { return k.src.float64() }

// UniformTime draws an instant uniformly from [lo, hi].
func (k *Kernel) UniformTime(lo, hi Time) Time {
	return Time(k.UniformDuration(Duration(lo), Duration(hi)))
}

// Stop makes Run return after the currently executing
// event completes. The clock still advances to the call's horizon, so
// events scheduled before it may remain pending behind the clock; see
// the re-entrancy invariant on Run.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the queue drains or the next
// event lies beyond horizon. The clock finishes at horizon so that model
// code observing Now at the end of a run sees the full duration. Run is
// resumable — the live driver calls it repeatedly to chase the wall
// clock: consecutive calls with non-decreasing horizons drain the queue
// incrementally, and a horizon at or before Now fires nothing and leaves
// the clock untouched.
//
// # Re-entrancy invariant
//
// Run and Step may be freely interleaved on one kernel; each call
// resumes from the current queue, and the clock NEVER rewinds. The one
// way an event can come to sit behind the clock is a Stop()ed Run: the
// clock jumps to the horizon while undrained events
// keep their original times. Such events fire at the current instant —
// drainTo clamps the clock monotonically instead of assigning e.at —
// exactly as a real scheduler fires an overdue timer late. Before this
// was an invariant, a Stop'ed Run followed by another drain call would
// rewind Now to the stale event's time, breaking the "schedule only in
// the future" rule for every callback that fired after it.
func (k *Kernel) Run(horizon Time) {
	k.stopped = false
	k.drainTo(horizon)
	if k.now < horizon {
		k.now = horizon
	}
}

// NextEventTime reports the virtual time of the earliest pending
// non-canceled event. Canceled heads are discarded and postponed
// ones moved on the way, so the answer is exact, not a bound. The live
// driver uses it to compute how long the event loop may sleep on the
// wall clock.
func (k *Kernel) NextEventTime() (Time, bool) {
	if e, _ := k.head(); e != nil {
		return e.at, true
	}
	return 0, false
}

// front returns the queue's least slot — the run's last or the heap's
// root, whichever sorts first — and whether it is the run's; nil for an
// empty queue. Every reader of the head goes through it.
func (k *Kernel) front() (*heapSlot, bool) {
	if n := k.nearN; n > 0 {
		if s := &k.near[n-1]; len(k.heap) == 0 || slotLess(s, &k.heap[0]) {
			return s, true
		}
	}
	if len(k.heap) == 0 {
		return nil, false
	}
	return &k.heap[0], false
}

// head settles the front of the queue and returns the next event to
// fire, still queued, and whether it is the run's; nil for an empty queue.
func (k *Kernel) head() (*Event, bool) {
	for {
		s, near := k.front()
		if s == nil {
			return nil, false
		}
		if e := s.e; k.settled(s, near) {
			return e, near
		}
	}
}

// settled reports whether the front slot s is the next event to fire. If
// it is not it is dealt with — a canceled event is discarded and recycled,
// a stale Deadline event takes its Deadline's key and is re-queued under
// it (re-sifted in place at the heap's root) — and the caller looks at the
// new front. Neither is a fired event, and neither consumes a sequence
// number.
func (k *Kernel) settled(s *heapSlot, near bool) bool {
	e := s.e
	if e.canceled {
		k.pop(near)
		k.release(e)
		return false
	}
	if !e.keyed {
		return true
	}
	d := e.arg.(*Deadline)
	if d.seq == s.seq {
		return true
	}
	e.at, e.seq = d.at, d.seq
	if near {
		k.pop(true)
		k.push(e)
	} else {
		k.siftDown(0, heapSlot{at: e.at, seq: e.seq, e: e})
	}
	return false
}

// drainTo fires events with at <= limit in (time, seq) order until the
// queue drains, the limit is reached, or Stop is called. A slot's key
// never exceeds its event's, so a front slot beyond the limit ends the
// drain without being settled.
func (k *Kernel) drainTo(limit Time) {
	k.limit, k.draining = limit, true
	for !k.stopped {
		s, near := k.front()
		if s == nil || s.at > limit {
			break
		}
		if e := s.e; k.settled(s, near) {
			k.pop(near)
			k.fire(e)
		}
	}
	k.draining = false
}

// AdvanceTo lets the running callback continue as the event it would
// otherwise schedule for itself at t: it reports whether "AtArg(t, self)
// and return" would be followed immediately by that event firing, and if
// so performs the same state change without touching the queue — the
// clock moves to t, and seq and fired each advance by one exactly as the
// schedule-then-pop would have, so Fired() and every later event's
// sequence number are unchanged. The caller then carries on with the work
// of the would-be event; on false it must schedule normally.
//
// That is the case only inside a Run drain (Step fires
// one event and returns), when Stop has not been called, when t is within
// the drain's limit, and when no live pending event has at <= t. The
// comparison is non-strict on purpose: an equal-time pending event was
// scheduled earlier than the one being replaced, so it must fire first.
// Canceled heads are discarded and postponed ones moved on the way, as
// the drain would have.
//
// It exists for walkers of a long pre-sorted schedule (the netsim
// multicast delivery train), which would otherwise push and pop one queue
// entry per distinct instant.
func (k *Kernel) AdvanceTo(t Time) bool {
	if !k.draining || k.stopped || t > k.limit || t < k.now {
		return false
	}
	if next, ok := k.NextEventTime(); ok && next <= t {
		return false
	}
	k.now = t
	k.seq++
	k.fired++
	return true
}

// fire executes one event, clamping the clock monotonically: an event
// left behind the clock by a Stop()ed Run fires at the current instant
// rather than rewinding Now.
func (k *Kernel) fire(e *Event) {
	if e.at > k.now {
		k.now = e.at
	}
	k.fired++
	if e.argFn != nil {
		e.argFn(e.arg)
	} else {
		e.fn()
	}
	k.release(e)
}

// Pending reports the number of queued events: every live event once,
// however often its Deadline was renewed, plus canceled events that have
// not yet been discarded.
func (k *Kernel) Pending() int { return len(k.heap) + k.nearN }

// slotLess orders queue entries by (time, seq): schedule order breaks
// ties, so same-instant events fire in the order they were scheduled.
func slotLess(a, b *heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues an event under its true key: into the run if it is due
// within nearSpan and the run has room, shifting the run's earlier slots
// one place toward its end, else into the 4-ary min-heap. A 4-ary heap
// halves the tree depth of the binary heap and keeps the four children of
// a node adjacent, which measures faster on the simulator's churn of
// push/pop pairs; neither tier needs a per-event index because lazy
// cancellation and postponement never remove from the middle.
func (k *Kernel) push(e *Event) {
	s := heapSlot{at: e.at, seq: e.seq, e: e}
	if n := k.nearN; n < nearRun && e.at-k.now < nearSpan {
		for ; n > 0 && slotLess(&k.near[n-1], &s); n-- {
			k.near[n] = k.near[n-1]
		}
		k.near[n] = s
		k.nearN++
		return
	}
	h := append(k.heap, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !slotLess(&s, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = s
	k.heap = h
}

// pop removes the front slot, the run's if near (the caller has already
// read it).
func (k *Kernel) pop(near bool) {
	if near {
		k.nearN--
		k.near[k.nearN] = heapSlot{}
		return
	}
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap[n] = heapSlot{}
	k.heap = k.heap[:n]
	if n > 0 {
		k.siftDown(0, last)
	}
}

// siftDown places s at index i or below, wherever the heap order puts it.
func (k *Kernel) siftDown(i int, s heapSlot) {
	h := k.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := min(c+4, n)
		// The least child, its key held in registers across the scan.
		m, at, seq := c, h[c].at, h[c].seq
		for j := c + 1; j < end; j++ {
			if a := h[j].at; a < at || (a == at && h[j].seq < seq) {
				m, at, seq = j, a, h[j].seq
			}
		}
		if at > s.at || (at == s.at && seq > s.seq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = s
}
