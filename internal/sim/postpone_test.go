package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// TestEventFitsCacheLine pins the 64-byte Event budget: the true key, both
// callback forms, the flag and the pool link share one cache line, and the
// queue's own copy of the key lives in the heap slot, not here.
func TestEventFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 64 {
		t.Errorf("Event is %d bytes, budget 64", size)
	}
}

// scheduler is what the property test drives: the kernel under test and
// the lazy-cancel reference, each behind handles the test owns. postpone on
// the reference is the definition a Deadline renewal must match — cancel,
// then schedule the same callback again.
type scheduler interface {
	Now() Time
	Fired() uint64
	Run(Time)
	Step() bool
	Stop()
	NextEventTime() (Time, bool)
	AdvanceTo(Time) bool

	reset()
	schedule(id int, t Time, arg bool, fire func(id int))
	cancel(id int)
	postpone(id int, t Time)
	forget(id int)     // the event fired: drop the handle
	seq(id int) uint64 // sequence number of the pending (or firing) event
	at(id int) Time    // its instant
}

// realSched holds each event either as a plain At event or behind a
// Deadline: the arg form schedules through a Deadline, and postponing a
// plain event cancels it and arms a Deadline in its place (one fresh
// sequence number, as the reference's cancel-and-schedule), so every
// later postponement of it is a lazy Deadline renewal.
type realSched struct {
	*Kernel
	ev map[int]*Event
	dl map[int]*Deadline
	fn map[int]func(int)
}

func (s *realSched) reset() { s.Kernel.Reset(1); clear(s.ev); clear(s.dl); clear(s.fn) }
func (s *realSched) schedule(id int, t Time, arg bool, fire func(int)) {
	s.fn[id] = fire
	if arg {
		s.arm(id, t)
	} else {
		s.ev[id] = s.At(t, func() { fire(id) })
	}
}
func (s *realSched) arm(id int, t Time) {
	d := &Deadline{}
	d.Init(s.Kernel, func(x any) { s.fn[id](x.(int)) }, id)
	d.Set(t)
	s.dl[id] = d
}
func (s *realSched) cancel(id int) {
	if d := s.dl[id]; d != nil {
		d.Clear()
	} else {
		s.ev[id].Cancel()
	}
	s.forget(id)
}
func (s *realSched) postpone(id int, t Time) {
	if d := s.dl[id]; d != nil {
		d.Set(t)
		return
	}
	s.ev[id].Cancel()
	delete(s.ev, id)
	s.arm(id, t)
}
func (s *realSched) forget(id int) { delete(s.ev, id); delete(s.dl, id); delete(s.fn, id) }
func (s *realSched) seq(id int) uint64 {
	if d := s.dl[id]; d != nil {
		return d.seq
	}
	return s.ev[id].seq
}
func (s *realSched) at(id int) Time {
	if d := s.dl[id]; d != nil {
		return d.at
	}
	return s.ev[id].at
}

type refSched struct {
	*refKernel
	ev  map[int]*refEvent
	fn  map[int]func(int)
	arg map[int]bool
}

func (s *refSched) reset() { s.refKernel.Reset(); clear(s.ev); clear(s.fn); clear(s.arg) }
func (s *refSched) schedule(id int, t Time, arg bool, fire func(int)) {
	s.fn[id], s.arg[id] = fire, arg
	if arg {
		s.ev[id] = s.AtArg(t, func(x any) { fire(x.(int)) }, id)
	} else {
		s.ev[id] = s.At(t, func() { fire(id) })
	}
}
func (s *refSched) cancel(id int) { s.ev[id].Cancel(); s.forget(id) }
func (s *refSched) postpone(id int, t Time) {
	fire, arg := s.fn[id], s.arg[id]
	s.ev[id].Cancel()
	s.schedule(id, t, arg, fire)
}
func (s *refSched) forget(id int)     { delete(s.ev, id); delete(s.fn, id); delete(s.arg, id) }
func (s *refSched) seq(id int) uint64 { return s.ev[id].seq }
func (s *refSched) at(id int) Time    { return s.ev[id].at }

// kernelProgram drives one scheduler through a random program — schedule,
// cancel and postpone from the top level and from inside callbacks, drained
// by every drain call, with Stop, Reset, AdvanceTo and NextEventTime mixed
// in — and returns the log of everything observable. Times are drawn from a
// narrow range so equal-instant ties, the cases sequence numbers decide,
// are the rule rather than the exception. With straddle set, one delay in
// three lies within 2 ns of nearSpan either side, so events land on both
// sides of the kernel's run/heap boundary, and bursts of more than nearRun
// schedules overfill the run; without it the program draws exactly what it
// always has.
func kernelProgram(s scheduler, seed int64, steps int, straddle bool) []string {
	rng := rand.New(rand.NewSource(seed))
	delay := func(narrow int) Time {
		if straddle && rng.Intn(3) == 0 {
			return nearSpan - 2 + Time(rng.Intn(5))
		}
		return Time(rng.Intn(narrow))
	}
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf(format, args...)+fmt.Sprintf(" | now=%d fired=%d", s.Now(), s.Fired()))
	}
	var live []int // ids of pending events, in the order they were scheduled
	nextID := 0
	dead := func(id int) {
		for i, x := range live {
			if x == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	pick := func() int { return live[rng.Intn(len(live))] }

	var fire func(id int)
	add := func() {
		id := nextID
		nextID++
		t := s.Now() + delay(12)
		s.schedule(id, t, rng.Intn(2) == 0, fire)
		live = append(live, id)
		logf("schedule %d at %d seq %d", id, t, s.seq(id))
	}
	mutate := func() {
		switch r := rng.Intn(10); {
		case r < 4 || len(live) == 0:
			add()
		case r < 6:
			id := pick()
			s.cancel(id)
			dead(id)
			logf("cancel %d", id)
		default:
			id := pick()
			// Later or equal, and never behind the clock: an overdue event
			// (left behind by a stopped drain) can only move to now or on.
			t := s.at(id) + delay(8)
			if t < s.Now() {
				t = s.Now() + Time(rng.Intn(3))
			}
			s.postpone(id, t)
			logf("postpone %d to %d seq %d", id, t, s.seq(id))
		}
	}
	fire = func(id int) {
		logf("fire %d at %d seq %d", id, s.at(id), s.seq(id))
		s.forget(id)
		dead(id)
		for n := rng.Intn(3); n > 0; n-- {
			mutate()
		}
		switch rng.Intn(12) {
		case 0:
			s.Stop()
			logf("stop")
		case 1, 2:
			// A walker continuing in place, as the multicast train does.
			for hops := rng.Intn(4); hops > 0; hops-- {
				t := s.Now() + Time(rng.Intn(4))
				ok := s.AdvanceTo(t)
				logf("advance to %d: %v", t, ok)
				if !ok {
					break
				}
			}
		}
	}

	for i := 0; i < steps; i++ {
		if straddle && rng.Intn(32) == 0 {
			for n := nearRun + 1 + rng.Intn(8); n > 0; n-- {
				add()
			}
		}
		switch r := rng.Intn(20); {
		case r < 9:
			mutate()
		case r < 11:
			h := s.Now() + delay(15)
			s.Run(h)
			logf("run %d", h)
		case r < 13:
			h := s.Now() + delay(15) - 3 // sometimes behind the clock: fires nothing
			s.Run(h)
			logf("run %d", h)
		case r < 17:
			logf("step: %v", s.Step())
		case r < 19:
			next, ok := s.NextEventTime()
			logf("next: %d %v", next, ok)
		default:
			if rng.Intn(4) == 0 {
				s.reset()
				live = live[:0]
				logf("reset")
			}
		}
	}
	final := Time(1000)
	if straddle {
		final += 100 * nearSpan
	}
	s.Run(s.Now() + final)
	logf("final drain, %d never fired", len(live))
	return log
}

// matchReference runs one kernelProgram on the kernel and on the
// lazy-cancel reference and fails at the first line their logs differ.
func matchReference(t *testing.T, seed int64, steps int, straddle bool) {
	t.Helper()
	real := &realSched{Kernel: New(1), ev: map[int]*Event{}, dl: map[int]*Deadline{}, fn: map[int]func(int){}}
	ref := &refSched{refKernel: &refKernel{}, ev: map[int]*refEvent{}, fn: map[int]func(int){}, arg: map[int]bool{}}
	got := kernelProgram(real, seed, steps, straddle)
	want := kernelProgram(ref, seed, steps, straddle)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			from := max(0, i-8)
			t.Fatalf("seed %d straddle %v: diverged from the lazy-cancel reference at line %d\n--- got ---\n%s\n--- want ---\n%s",
				seed, straddle, i, strings.Join(got[from:i+1], "\n"), strings.Join(want[from:i+1], "\n"))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d straddle %v: %d log lines against the reference's %d", seed, straddle, len(got), len(want))
	}
}

func TestKernelMatchesLazyCancelReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		matchReference(t, seed, 400, false)
		matchReference(t, seed, 400, true)
	}
}

// FuzzKernelMatchesReference drives kernelProgram from fuzz input: the
// seed, the program length and the delay mode.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(400), false)
	f.Add(int64(7), uint16(400), true)
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, straddle bool) {
		matchReference(t, seed, int(steps%2000), straddle)
	})
}

// TestPostponeKeepsOneQueueEntry: however often a Deadline is postponed
// it owns one queue entry, where Cancel plus At leaves one dead entry each.
func TestPostponeKeepsOneQueueEntry(t *testing.T) {
	k := New(1)
	fired := Time(-1)
	d := newDeadline(k, func() { fired = k.Now() })
	d.Set(10)
	for i := 0; i < 1000; i++ {
		d.Set(Time(10 + i))
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d after 1000 postponements, want 1", k.Pending())
	}
	if d.When() != 1009 {
		t.Errorf("When() = %v, want the postponed instant 1009", d.When())
	}
	k.Run(2000)
	if fired != 1009 {
		t.Errorf("fired at %v, want 1009", fired)
	}
	if k.Fired() != 1 {
		t.Errorf("Fired() = %d: re-sifting a postponed event must not count as firing", k.Fired())
	}
}

// TestPostponeTakesFreshSequence: a postponed Deadline fires after
// everything already scheduled for its new instant, exactly as a
// rescheduled event.
func TestPostponeTakesFreshSequence(t *testing.T) {
	k := New(1)
	var order []string
	a := newDeadline(k, func() { order = append(order, "a") })
	a.Set(5)
	k.At(9, func() { order = append(order, "b") })
	a.Set(9) // lands behind b
	k.At(9, func() { order = append(order, "c") })
	k.Run(20)
	if got := strings.Join(order, ""); got != "bac" {
		t.Errorf("order %q, want bac", got)
	}
	// Equal-instant postponement still moves the event to the back.
	order = order[:0]
	a.Set(30)
	k.At(30, func() { order = append(order, "b") })
	a.Set(30)
	k.Run(40)
	if got := strings.Join(order, ""); got != "ba" {
		t.Errorf("equal-instant order %q, want ba", got)
	}
}

// TestPostponePanics: a Deadline cannot be set behind the clock, whether
// the new instant lies after its expiry (a lazy postponement) or before it
// (a fresh schedule), and a refused Set leaves it armed as it was. A
// Deadline never holds a canceled event (Clear drops it), so there is no
// canceled-event case.
func TestPostponePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	k := New(1)
	var fired []int64
	d := newDeadline(k, func() { fired = append(fired, int64(k.Now())) })
	d.Set(10)
	// An overdue expiry (left behind the clock by a stopped drain) cannot
	// be postponed into the past, like any schedule call.
	k.At(1, func() { k.Stop() })
	k.Run(50)
	mustPanic("postponing behind the clock", func() { d.Set(20) })
	mustPanic("setting earlier, behind the clock", func() { d.Set(9) })
	if d.When() != 10 || k.Pending() != 1 {
		t.Fatalf("a refused Set changed the deadline: when=%v pending=%d", d.When(), k.Pending())
	}
	d.Set(50) // to the current instant is fine
	k.Run(60)
	if fmt.Sprint(fired) != "[50]" {
		t.Errorf("fires %v, want [50]", fired)
	}
}

// TestDeadlineRenewLeavesEventAlone: a renewal writes the Deadline only.
// The queued event keeps every byte until its old key comes up, and is
// then given the Deadline's key and re-queued without firing.
func TestDeadlineRenewLeavesEventAlone(t *testing.T) {
	k := New(1)
	fired := Time(-1)
	d := newDeadline(k, func() { fired = k.Now() })
	d.Set(10)
	e := d.pending
	if !e.keyed {
		t.Fatal("a Deadline's event is not marked as keyed by its Deadline")
	}
	before := *(*[unsafe.Sizeof(Event{})]byte)(unsafe.Pointer(e))
	d.Set(20)
	d.SetAfter(30)
	if after := *(*[unsafe.Sizeof(Event{})]byte)(unsafe.Pointer(e)); after != before {
		t.Fatal("a renewal wrote the queued event")
	}
	if e.at != 10 || d.at != 30 || d.seq == e.seq {
		t.Fatalf("event key (%v, %d), deadline key (%v, %d): want the event at 10 behind the deadline at 30",
			e.at, e.seq, d.at, d.seq)
	}
	k.Run(15) // the stale slot comes up at 10
	if k.Fired() != 0 || fired != -1 || k.Pending() != 1 {
		t.Fatalf("settling the stale slot fired %d events (pending %d)", k.Fired(), k.Pending())
	}
	if e.at != 30 || e.seq != d.seq || d.pending != e {
		t.Fatalf("after its old key came up the event is at (%v, %d), want the deadline's (30, %d)", e.at, e.seq, d.seq)
	}
	k.Run(40)
	if fired != 30 || k.Fired() != 1 {
		t.Errorf("fired at %v (%d events), want once at 30", fired, k.Fired())
	}
}

// TestNextEventTimeAndAdvanceToSettleTheHead: the questions AdvanceTo and
// NextEventTime answer are about true keys, so postponed and canceled
// heads must be settled first — including the equal-time case, where an
// event postponed to t was "scheduled" after a walker's would-be event
// only if the walker asks first.
func TestNextEventTimeAndAdvanceToSettleTheHead(t *testing.T) {
	k := New(1)
	canceled := k.At(3, func() { t.Error("canceled event fired") })
	postponed := newDeadline(k, func() {})
	postponed.Set(4)
	k.At(20, func() {})
	canceled.Cancel()
	postponed.Set(12)
	if next, ok := k.NextEventTime(); !ok || next != 12 {
		t.Fatalf("NextEventTime = %v,%v, want 12 (canceled head discarded, postponed head moved)", next, ok)
	}
	if k.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2: the canceled head is gone, the postponed one kept its entry", k.Pending())
	}
	if k.Fired() != 0 {
		t.Errorf("settling the head fired %d events", k.Fired())
	}

	// From inside a drain: a walker at 5 may advance to 11 (nothing due
	// first), not to 12 (the postponed event is due at 12 and was there
	// first), and its stale slot key 6 must not make 11 look blocked.
	k.Reset(1)
	var reached []int64
	k.At(5, func() {
		for _, target := range []Time{11, 12} {
			if k.AdvanceTo(target) {
				reached = append(reached, int64(k.Now()))
			}
		}
	})
	postponed = newDeadline(k, func() { reached = append(reached, -int64(k.Now())) })
	postponed.Set(6)
	postponed.Set(12)
	dead := k.At(7, func() { t.Error("canceled event fired") })
	dead.Cancel()
	k.Run(30)
	if fmt.Sprint(reached) != "[11 -12]" {
		t.Errorf("walker/postponed sequence %v, want [11 -12]", reached)
	}
	if k.Fired() != 3 { // the walker, its one advance, the postponed event
		t.Errorf("Fired() = %d, want 3", k.Fired())
	}
}

func TestStepFiresPostponedEventAtItsNewInstant(t *testing.T) {
	k := New(1)
	var order []int64
	a := newDeadline(k, func() { order = append(order, int64(k.Now())) })
	a.Set(2)
	k.At(5, func() { order = append(order, int64(k.Now())) })
	a.Set(8)
	for k.Step() {
	}
	if fmt.Sprint(order) != "[5 8]" {
		t.Errorf("Step order %v, want [5 8]", order)
	}
}

func TestDeadlineSetLaterEarlierAndFromItsOwnCallback(t *testing.T) {
	k := New(1)
	var fires []int64
	var d *Deadline
	rearmInCallback := false
	d = newDeadline(k, func() {
		fires = append(fires, int64(k.Now()))
		if rearmInCallback {
			rearmInCallback = false
			d.SetAfter(7) // the fired event is gone: this is a fresh schedule
		}
	})

	d.Set(10)
	d.Set(30) // later: postponed in place
	if k.Pending() != 1 || d.When() != 30 || d.pending == nil {
		t.Fatalf("after Set(10), Set(30): pending=%d when=%v armed=%v", k.Pending(), d.When(), d.pending != nil)
	}
	d.Set(20) // earlier: cancel and reschedule
	if d.When() != 20 || d.pending == nil {
		t.Fatalf("after Set(20): when=%v armed=%v", d.When(), d.pending != nil)
	}
	k.Run(25)
	if fmt.Sprint(fires) != "[20]" {
		t.Fatalf("fires %v, want [20] (not the superseded 10 or 30)", fires)
	}
	k.Run(40)
	if len(fires) != 1 || d.pending != nil {
		t.Fatalf("superseded expiry fired or deadline still armed: %v %v", fires, d.pending != nil)
	}

	rearmInCallback = true
	d.Set(50)
	k.Run(100)
	if fmt.Sprint(fires) != "[20 50 57]" {
		t.Errorf("fires %v, want [20 50 57]", fires)
	}

	// Clear, then Set again: Clear dropped the event, so this is a fresh one.
	d.Set(200)
	d.Clear()
	d.Set(150)
	k.Run(300)
	if fmt.Sprint(fires) != "[20 50 57 150]" {
		t.Errorf("fires %v, want [... 150]", fires)
	}
}

func TestDeadlineSetAfterRearm(t *testing.T) {
	k := New(1)
	var fires []int64
	d := newDeadline(k, func() { fires = append(fires, int64(k.Now())) })
	d.Set(100)
	// Workspace reuse: the kernel is reset (the old event is recycled and
	// may already belong to somebody else), the deadline rearmed.
	k.Reset(2)
	other := k.At(5, func() { fires = append(fires, -int64(k.Now())) })
	d.Rearm()
	if d.pending != nil {
		t.Error("armed after Rearm")
	}
	d.Set(40) // must not postpone the recycled event `other` now owns
	if other.at != 5 {
		t.Fatalf("Set after Rearm moved an unrelated event to %v", other.at)
	}
	k.Run(200)
	if fmt.Sprint(fires) != "[-5 40]" {
		t.Errorf("fires %v, want [-5 40]", fires)
	}
}

// TestDeadlineRenewSteadyState is the alloc and queue-size gate behind
// BenchmarkDeadlineRenew: a lease renewed k times per expiry allocates
// nothing and keeps the queue at one entry per live timer.
func TestDeadlineRenewSteadyState(t *testing.T) {
	k := New(1)
	const timers, renewals = 8, 15
	ds := make([]*Deadline, timers)
	for i := range ds {
		ds[i] = newDeadline(k, func() {})
	}
	cycle := func() {
		for r := 0; r < renewals; r++ {
			for _, d := range ds {
				d.SetAfter(1800)
			}
			k.Run(k.Now() + 120)
		}
		if p := k.Pending(); p != timers {
			t.Fatalf("Pending() = %d with %d live timers", p, timers)
		}
		k.Run(k.Now() + 1800) // every lease expires
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("%.1f allocs per renew-and-expire cycle, want 0", allocs)
	}
}
