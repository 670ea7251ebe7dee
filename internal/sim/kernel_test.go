package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := New(1)
	var got []Time
	times := []Duration{5 * Second, 1 * Second, 3 * Second, 2 * Second, 4 * Second}
	for _, d := range times {
		d := d
		k.After(d, func() { got = append(got, k.Now()) })
	}
	k.Run(10 * Second)
	want := []Time{1 * Second, 2 * Second, 3 * Second, 4 * Second, 5 * Second}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(1*Second, func() { order = append(order, i) })
	}
	k.Run(2 * Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of schedule order: %v", order)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := New(1)
	fired := false
	e := k.After(1*Second, func() { fired = true })
	e.Cancel()
	k.Run(2 * Second)
	if fired {
		t.Error("canceled event fired")
	}
	if !e.canceled {
		t.Error("not marked canceled after Cancel")
	}
	// Double cancel and nil cancel must be safe.
	e.Cancel()
	var nilEvent *Event
	nilEvent.Cancel()
}

func TestKernelHorizonStopsClockAtHorizon(t *testing.T) {
	k := New(1)
	fired := false
	k.After(10*Second, func() { fired = true })
	k.Run(5 * Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if k.Now() != 5*Second {
		t.Errorf("Now() = %v after Run, want horizon 5s", k.Now())
	}
	// A second Run can pick the event up.
	k.Run(20 * Second)
	if !fired {
		t.Error("event did not fire on extended run")
	}
}

func TestKernelEventsScheduledDuringRun(t *testing.T) {
	k := New(1)
	var seq []string
	k.After(1*Second, func() {
		seq = append(seq, "a")
		k.After(1*Second, func() { seq = append(seq, "b") })
	})
	k.Run(5 * Second)
	if len(seq) != 2 || seq[0] != "a" || seq[1] != "b" {
		t.Fatalf("got sequence %v", seq)
	}
}

func TestKernelStop(t *testing.T) {
	k := New(1)
	count := 0
	for i := 1; i <= 5; i++ {
		k.After(Duration(i)*Second, func() {
			count++
			if count == 2 {
				k.Stop()
			}
		})
	}
	k.Run(10 * Second)
	if count != 2 {
		t.Errorf("Stop did not halt the run: %d events fired", count)
	}
}

func TestKernelPanicsOnPastSchedule(t *testing.T) {
	k := New(1)
	k.After(2*Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(1*Second, func() {})
	})
	k.Run(3 * Second)
}

func TestKernelDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		k := New(seed)
		var fired []Time
		var schedule func()
		n := 0
		schedule = func() {
			fired = append(fired, k.Now())
			n++
			if n < 50 {
				k.After(k.UniformDuration(Millisecond, Second), schedule)
			}
		}
		k.After(0, schedule)
		k.Run(Hour)
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical runs")
	}
}

func TestUniformDuration(t *testing.T) {
	k := New(7)
	for i := 0; i < 1000; i++ {
		d := k.UniformDuration(10*Microsecond, 100*Microsecond)
		if d < 10*Microsecond || d > 100*Microsecond {
			t.Fatalf("UniformDuration out of range: %v", d)
		}
	}
	if d := k.UniformDuration(5, 5); d != 5 {
		t.Errorf("degenerate range returned %d", d)
	}
}

// Property: for any batch of scheduled delays, events fire in sorted order
// and every non-canceled event fires exactly once.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delaysMS []uint16, cancelMask []bool) bool {
		k := New(99)
		var fired []Time
		want := make([]Time, 0, len(delaysMS))
		for i, ms := range delaysMS {
			d := Duration(ms) * Millisecond
			e := k.After(d, func() { fired = append(fired, k.Now()) })
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel()
			} else {
				want = append(want, Time(d))
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		k.Run(Time(1<<16) * Millisecond)
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: UniformTime always lands inside the requested interval.
func TestQuickUniformTimeInRange(t *testing.T) {
	k := New(5)
	f := func(a, b uint32) bool {
		lo, hi := Time(a), Time(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		v := k.UniformTime(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestKernelAtArg(t *testing.T) {
	k := New(1)
	var got []int
	push := func(x any) { got = append(got, x.(int)) }
	k.AtArg(2*Second, push, 2)
	k.AfterArg(1*Second, push, 1)
	k.AtArg(2*Second, push, 3) // same instant: schedule order
	k.Run(5 * Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

// Fired events are recycled: steady-state scheduling reuses pool slots
// instead of allocating.
func TestKernelEventPoolRecycles(t *testing.T) {
	k := New(1)
	fn := func() {}
	e1 := k.After(Second, fn)
	k.Run(2 * Second)
	e2 := k.After(Second, fn)
	if e1 != e2 {
		t.Error("fired event was not recycled by the next schedule")
	}
	// A canceled event is recycled once popped.
	e2.Cancel()
	k.Run(4 * Second)
	if !e2.canceled {
		t.Error("canceled flag lost before slot reuse")
	}
	if e3 := k.After(Second, fn); e3 != e2 {
		t.Error("canceled+popped event was not recycled")
	} else if e3.canceled {
		t.Error("recycled event still marked canceled")
	}
}

// Steady-state scheduling and firing allocates nothing once the pool is
// warm (the closure here is static, so the only candidate allocations
// are kernel-internal).
func TestKernelZeroAllocSteadyState(t *testing.T) {
	k := New(1)
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < 8 {
			k.After(Millisecond, fn)
		}
	}
	// Warm the pool and the heap slice.
	k.After(Millisecond, fn)
	k.Run(Second)
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		k.After(Millisecond, fn)
		k.Run(k.Now() + Second)
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f allocs/run, want 0", allocs)
	}
}

// The event pool grows in chunks: filling a fresh kernel with 10,000
// pending events costs at most one allocation per 16 events (the chunks
// plus the heap slice's doublings), and refilling it after Reset, which
// returns every pending event to the pool, costs nothing.
func TestKernelEventPoolGrowsInChunks(t *testing.T) {
	const events = 10000
	fn := func() {}
	var k *Kernel
	fill := func() {
		for i := 0; i < events; i++ {
			k.At(Time(i+1), fn)
		}
	}
	cold := testing.AllocsPerRun(5, func() {
		k = New(1)
		fill()
	})
	if perEvent := cold / events; perEvent > 1.0/16 {
		t.Errorf("filling a fresh kernel: %.0f allocations for %d events (%.4f per event), budget 1 per 16", cold, events, perEvent)
	}
	refill := testing.AllocsPerRun(5, func() {
		k.Reset(1)
		fill()
	})
	if refill != 0 {
		t.Errorf("refilling after Reset: %.0f allocations, want 0", refill)
	}
	t.Logf("fresh fill: %.0f allocations for %d events", cold, events)
}

// Reset reuses the kernel: same seed, identical stream and scheduling as
// a fresh kernel, with pending events of the previous run discarded.
func TestKernelReset(t *testing.T) {
	fresh := New(42)
	reused := New(7)
	reused.After(Second, func() {})
	reused.After(5*Second, func() {})
	reused.Run(2 * Second) // leave one event pending
	reused.Reset(42)
	if reused.Pending() != 0 || reused.Now() != 0 || reused.Fired() != 0 {
		t.Fatalf("Reset left state: pending=%d now=%v fired=%d",
			reused.Pending(), reused.Now(), reused.Fired())
	}
	for i := 0; i < 100; i++ {
		a := fresh.UniformDuration(0, Hour)
		b := reused.UniformDuration(0, Hour)
		if a != b {
			t.Fatalf("draw %d diverged after Reset: %v vs %v", i, a, b)
		}
	}
	var seqA, seqB []Time
	fresh.After(fresh.UniformDuration(0, Second), func() { seqA = append(seqA, fresh.Now()) })
	reused.After(reused.UniformDuration(0, Second), func() { seqB = append(seqB, reused.Now()) })
	fresh.Run(Hour)
	reused.Run(Hour)
	if len(seqA) != 1 || len(seqB) != 1 || seqA[0] != seqB[0] {
		t.Fatalf("firing times diverged after Reset: %v vs %v", seqA, seqB)
	}
}

// TestResetEndsAPanickedDrain: a callback that panics out of Run leaves
// its drain unfinished and events queued in both tiers. Reset must end
// the drain — AdvanceTo outside any drain refuses, without moving the
// clock or counting a firing — and discard every queued event.
func TestResetEndsAPanickedDrain(t *testing.T) {
	k := New(1)
	k.At(1, func() { panic("callback failed") })
	k.At(2, func() { t.Error("a near event survived Reset") })
	k.At(2*Hour, func() { t.Error("a timer survived Reset") })
	func() {
		defer func() { recover() }()
		k.Run(10)
	}()
	k.Reset(1)
	if k.AdvanceTo(3) || k.Now() != 0 || k.Fired() != 0 || k.Pending() != 0 {
		t.Fatalf("after Reset: now=%d fired=%d pending=%d", k.Now(), k.Fired(), k.Pending())
	}
	k.Run(3 * Hour)
}

// The splitmix source must be deterministic per seed and differ across
// seeds.
func TestSplitmixStream(t *testing.T) {
	var a, b, c splitmix64
	a.Seed(9)
	b.Seed(9)
	c.Seed(10)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		x, y, z := a.Uint64(), b.Uint64(), c.Uint64()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Error("same seed diverged")
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

// Run must drain incrementally and leave the clock at its horizon, and
// Step must resume from wherever the previous drain left off —
// preserving the global (time, seq) order across the API boundary.
func TestStepRunUntilInterleave(t *testing.T) {
	k := New(1)
	var got []int
	for i, at := range []Time{1 * Second, 2 * Second, 2 * Second, 3 * Second, 5 * Second} {
		i := i
		k.At(at, func() { got = append(got, i) })
	}
	if at, ok := k.NextEventTime(); !ok || at != 1*Second {
		t.Fatalf("NextEventTime = %v, %v; want 1s, true", at, ok)
	}
	k.Run(2 * Second) // fires events 0, 1, 2
	if want := []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("after Run(2s): fired %v, want %v", got, want)
	}
	if k.Now() != 2*Second {
		t.Fatalf("Now = %v after Run(2s)", k.Now())
	}
	k.Run(1 * Second) // horizon behind the clock: no-op, no rewind
	if k.Now() != 2*Second {
		t.Fatalf("Run rewound the clock to %v", k.Now())
	}
	if !k.Step() {
		t.Fatal("Step found no event")
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(got, want) || k.Now() != 3*Second {
		t.Fatalf("after Step: fired %v at %v", got, k.Now())
	}
	k.Run(10 * Second) // Run resumes from the partially drained heap
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("after Run: fired %v, want %v", got, want)
	}
	if k.Now() != 10*Second {
		t.Fatalf("Now = %v after Run(10s)", k.Now())
	}
	if k.Step() {
		t.Fatal("Step fired on an empty heap")
	}
}

// A Stop()ed Run advances the clock past still-pending events; firing
// them later must NOT rewind the clock (the re-entrancy invariant), and
// callbacks that schedule relative to Now must stay in the future.
func TestRunReenterableAfterStop(t *testing.T) {
	k := New(1)
	var fired []Time
	note := func() { fired = append(fired, k.Now()) }
	k.At(1*Second, func() { note(); k.Stop() })
	k.At(2*Second, note)
	// An overdue callback scheduling After(d) must land in the future.
	k.At(3*Second, func() { k.After(Second, note) })
	k.Run(10 * Second)
	if k.Now() != 10*Second {
		t.Fatalf("Now = %v after stopped Run; want the horizon", k.Now())
	}
	if len(fired) != 1 {
		t.Fatalf("fired %v before Stop; want one event", fired)
	}
	// The overdue events fire at the current instant, clock held.
	if !k.Step() || k.Now() != 10*Second {
		t.Fatalf("overdue Step rewound the clock to %v", k.Now())
	}
	k.Run(20 * Second)
	if k.Now() != 20*Second {
		t.Fatalf("Now = %v after resumed Run", k.Now())
	}
	want := []Time{1 * Second, 10 * Second, 11 * Second}
	if !slices.Equal(fired, want) {
		t.Fatalf("firing instants %v, want %v", fired, want)
	}
}

// walker is the shape AdvanceTo exists for: a callback that visits a
// sorted list of instants, in place when the kernel allows it and through
// a re-armed event when it does not (inPlace == false never asks, which
// is the behaviour AdvanceTo must be indistinguishable from).
type walker struct {
	k       *Kernel
	at      []Time
	i       int
	inPlace bool
	visit   func(Time)
	moved   int // instants reached through AdvanceTo
}

func walk(x any) {
	w := x.(*walker)
	for {
		w.visit(w.k.Now())
		w.i++
		if w.i == len(w.at) {
			return
		}
		if !w.inPlace || !w.k.AdvanceTo(w.at[w.i]) {
			w.k.AtArg(w.at[w.i], walk, w)
			return
		}
		w.moved++
	}
}

// An AdvanceTo walk must be indistinguishable from the schedule-then-pop
// walk it replaces: same visiting instants, same interleaving with other
// events (including one a visit schedules between two instants and ones
// at exactly a visited instant), same Fired(), and the same sequence
// numbers handed to events scheduled afterwards.
func TestAdvanceToMatchesRearm(t *testing.T) {
	type step struct {
		what  string
		at    Time
		fired uint64
	}
	run := func(inPlace bool) ([]step, uint64, uint64, int) {
		k := New(1)
		var log []step
		note := func(what string) { log = append(log, step{what, k.Now(), k.Fired()}) }
		w := &walker{k: k, inPlace: inPlace,
			at: []Time{10, 20, 30, 30 + Second, 40 + Second, 50 + Second, 2 * Hour}}
		w.visit = func(now Time) {
			note("visit")
			if now == 20 {
				k.At(25, func() { note("between") }) // lands before the next instant
				k.At(30, func() { note("equal, scheduled first") })
			}
		}
		k.At(40+Second, func() { note("equal, pre-existing") })
		k.At(45+Second, func() { note("canceled") }).Cancel()
		k.AtArg(w.at[0], walk, w)
		k.Run(Hour) // the last instant lies past the horizon
		note("horizon")
		k.Run(3 * Hour)
		e := k.At(4*Hour, func() {})
		return log, k.Fired(), e.seq, w.moved
	}
	want, wantFired, wantSeq, _ := run(false)
	got, gotFired, gotSeq, moved := run(true)
	if !slices.Equal(got, want) {
		t.Errorf("in-place walk diverged from the re-armed walk:\n got %v\nwant %v", got, want)
	}
	if gotFired != wantFired || gotSeq != wantSeq {
		t.Errorf("Fired/seq = %d/%d in place, %d/%d re-armed", gotFired, gotSeq, wantFired, wantSeq)
	}
	// 10→20, 30→30+1s and 40+1s→50+1s (across the canceled head) move in
	// place; 20→30 (events due first), →40+1s (equal-time event) and →2h
	// (past the horizon) must not.
	if moved != 3 {
		t.Errorf("%d instants reached in place, want 3", moved)
	}
}

func TestAdvanceToRefusals(t *testing.T) {
	k := New(1)
	if k.AdvanceTo(Second) {
		t.Error("AdvanceTo succeeded outside any drain")
	}
	// Step fires one event and returns, so it is no drain — not even for
	// the one instant a finished Run leaves within its old limit.
	var inStep bool
	k.Run(1 * Second)
	k.At(1*Second, func() { inStep = k.AdvanceTo(1 * Second) })
	k.Step()
	if inStep {
		t.Error("AdvanceTo succeeded under Step, which fires a single event")
	}

	var equal, later, behind, ok bool
	k.At(2*Second, func() {
		k.At(5*Second, func() {})
		equal = k.AdvanceTo(5 * Second)
		later = k.AdvanceTo(6 * Second)
		behind = k.AdvanceTo(1 * Second)
		ok = k.AdvanceTo(4 * Second)
		if k.Now() != 4*Second {
			t.Errorf("after AdvanceTo(4s) the clock reads %v", k.Now())
		}
	})
	k.Run(10 * Second)
	if equal || later || behind {
		t.Errorf("AdvanceTo to/past a live pending event: %v/%v; behind the clock: %v", equal, later, behind)
	}
	if !ok {
		t.Error("AdvanceTo(4s) refused with the next event at 5s")
	}

	// One tick past the limit of the drain, and exactly on it.
	var past, on bool
	limit := k.Now() + 10*Second
	k.At(k.Now()+Second, func() {
		past = k.AdvanceTo(limit + 1)
		on = k.AdvanceTo(limit)
	})
	k.Run(limit)
	if past || !on {
		t.Errorf("Run(limit): AdvanceTo(limit+1) = %v, AdvanceTo(limit) = %v", past, on)
	}

	var stopped bool
	k.At(k.Now()+Second, func() {
		k.Stop()
		stopped = k.AdvanceTo(k.Now() + Second)
	})
	k.Run(k.Now() + 10*Second)
	if stopped {
		t.Error("AdvanceTo succeeded after Stop")
	}
	if k.AdvanceTo(k.Now() + Second) {
		t.Error("AdvanceTo succeeded after the drain returned")
	}
}
