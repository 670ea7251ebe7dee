package sim

import "testing"

// callFunc adapts a closure to the timers' static-callback signature, so
// tests can keep writing their callbacks inline.
func callFunc(x any) { x.(func())() }

func newTicker(k *Kernel, period Duration, fn func()) *Ticker {
	t := &Ticker{}
	t.Init(k, period, callFunc, fn)
	return t
}

func newDeadline(k *Kernel, fn func()) *Deadline {
	d := &Deadline{}
	d.Init(k, callFunc, fn)
	return d
}

func TestTickerFiresPeriodically(t *testing.T) {
	k := New(1)
	var fired []Time
	tk := newTicker(k, 10*Second, func() { fired = append(fired, k.Now()) })
	tk.Start(5 * Second)
	k.Run(36 * Second)
	want := []Time{5 * Second, 15 * Second, 25 * Second, 35 * Second}
	if len(fired) != len(want) {
		t.Fatalf("fired %d times, want %d: %v", len(fired), len(want), fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestTickerStopAndRestart(t *testing.T) {
	k := New(1)
	count := 0
	tk := newTicker(k, 10*Second, func() { count++ })
	tk.Start(0)
	k.After(25*Second, tk.Stop)
	k.Run(60 * Second)
	if count != 3 { // t=0, 10, 20
		t.Fatalf("fired %d times before stop, want 3", count)
	}
	if tk.Running() {
		t.Error("ticker still running after Stop")
	}
	tk.Start(0)
	k.Run(75 * Second)
	if count != 5 { // +t=60, 70
		t.Errorf("fired %d times after restart, want 5", count)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	k := New(1)
	count := 0
	var tk *Ticker
	tk = newTicker(k, Second, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	tk.Start(0)
	k.Run(10 * Second)
	if count != 2 {
		t.Errorf("fired %d times, want 2", count)
	}
}

func TestDeadlineRenewal(t *testing.T) {
	k := New(1)
	var expired []Time
	d := newDeadline(k, func() { expired = append(expired, k.Now()) })
	d.SetAfter(10 * Second)                                // would expire at 10
	k.After(5*Second, func() { d.SetAfter(10 * Second) })  // push to 15
	k.After(12*Second, func() { d.SetAfter(10 * Second) }) // push to 22
	k.Run(Minute)
	if len(expired) != 1 || expired[0] != 22*Second {
		t.Errorf("expired at %v, want [22s]", expired)
	}
	if d.pending != nil {
		t.Error("deadline still armed after firing")
	}
}

func TestDeadlineClear(t *testing.T) {
	k := New(1)
	fired := false
	d := newDeadline(k, func() { fired = true })
	d.SetAfter(10 * Second)
	if d.pending == nil {
		t.Fatal("deadline not armed after Set")
	}
	if d.When() != 10*Second {
		t.Errorf("When() = %v, want 10s", d.When())
	}
	d.Clear()
	k.Run(Minute)
	if fired {
		t.Error("cleared deadline fired")
	}
}

func TestTickerRejectsBadPeriod(t *testing.T) {
	k := New(1)
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	newTicker(k, 0, func() {})
}
