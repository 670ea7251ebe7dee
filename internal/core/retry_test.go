package core

import (
	"testing"

	"repro/internal/sim"
)

// retryFuncs carries a test's inline closures through the owner slot of
// the static-callback form.
type retryFuncs struct {
	send      func(attempt int)
	exhausted func()
}

func newRetry(k *sim.Kernel, policy RetryPolicy, send func(attempt int), onExhausted func()) *Retry {
	r := &Retry{}
	var exhausted func(any)
	if onExhausted != nil {
		exhausted = func(x any) { x.(*retryFuncs).exhausted() }
	}
	r.Init(k, policy, func(x any, attempt int) { x.(*retryFuncs).send(attempt) }, exhausted,
		&retryFuncs{send: send, exhausted: onExhausted})
	return r
}

func TestRetrySchedule(t *testing.T) {
	k := sim.New(1)
	var sends []sim.Time
	exhausted := false
	r := newRetry(k, RetryPolicy{Interval: 10 * sim.Second, Limit: 3},
		func(attempt int) { sends = append(sends, k.Now()) },
		func() { exhausted = true })
	k.At(5*sim.Second, r.Start)
	k.Run(100 * sim.Second)
	want := []sim.Time{5 * sim.Second, 15 * sim.Second, 25 * sim.Second}
	if len(sends) != len(want) {
		t.Fatalf("sends at %v, want %v", sends, want)
	}
	for i := range want {
		if sends[i] != want[i] {
			t.Fatalf("sends at %v, want %v", sends, want)
		}
	}
	if !exhausted {
		t.Error("onExhausted not invoked after limit")
	}
	if r.Active() {
		t.Error("retry still active after exhaustion")
	}
}

func TestRetryStopOnAck(t *testing.T) {
	k := sim.New(1)
	sends := 0
	exhausted := false
	r := newRetry(k, RetryPolicy{Interval: 10 * sim.Second, Limit: 5},
		func(int) { sends++ }, func() { exhausted = true })
	r.Start()
	k.At(12*sim.Second, r.Stop) // "ack" arrives after the second send
	k.Run(200 * sim.Second)
	if sends != 2 {
		t.Errorf("sends = %d, want 2", sends)
	}
	if exhausted {
		t.Error("onExhausted fired after Stop")
	}
}

func TestRetryUnlimitedSRC1(t *testing.T) {
	k := sim.New(1)
	sends := 0
	r := newRetry(k, RetryPolicy{Interval: sim.Second, Limit: 0}, func(int) { sends++ }, nil)
	r.Start()
	k.Run(100 * sim.Second)
	if sends != 101 { // t=0..100 inclusive
		t.Errorf("sends = %d, want 101 (unlimited schedule)", sends)
	}
	if !r.Active() {
		t.Error("unlimited retry must stay active")
	}
}

func TestRetryRestartResetsCount(t *testing.T) {
	k := sim.New(1)
	attempts := []int{}
	r := newRetry(k, RetryPolicy{Interval: 10 * sim.Second, Limit: 2},
		func(a int) { attempts = append(attempts, a) }, nil)
	r.Start()
	k.At(25*sim.Second, r.Start) // restart after first schedule exhausted
	k.Run(100 * sim.Second)
	want := []int{1, 2, 1, 2}
	if len(attempts) != len(want) {
		t.Fatalf("attempts = %v, want %v", attempts, want)
	}
	for i := range want {
		if attempts[i] != want[i] {
			t.Fatalf("attempts = %v, want %v", attempts, want)
		}
	}
	if r.sent != 2 {
		t.Errorf("sent = %d, want 2", r.sent)
	}
}

func TestRetryRejectsBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero interval accepted")
		}
	}()
	newRetry(sim.New(1), RetryPolicy{Interval: 0, Limit: 1}, func(int) {}, nil)
}
