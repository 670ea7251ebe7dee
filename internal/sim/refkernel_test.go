package sim

import "fmt"

// refKernel is the scheduler as it stood before Kernel.Postpone existed —
// a heap of event pointers, lazy cancellation only, a renewed timer being
// a Cancel plus a fresh schedule — kept, verbatim but for the random
// stream, as the test-only reference TestKernelMatchesLazyCancelReference
// holds the kernel to. Do not "improve" it.
type refKernel struct {
	now      Time
	seq      uint64
	heap     []*refEvent
	free     *refEvent
	stopped  bool
	fired    uint64
	limit    Time
	draining bool
}

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	argFn    func(any)
	arg      any
	canceled bool
	next     *refEvent
}

func (e *refEvent) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

func (k *refKernel) Reset() {
	for _, e := range k.heap {
		k.release(e)
	}
	k.heap = k.heap[:0]
	k.now = 0
	k.seq = 0
	k.fired = 0
	k.stopped = false
}

func (k *refKernel) Now() Time     { return k.now }
func (k *refKernel) Fired() uint64 { return k.fired }
func (k *refKernel) Stop()         { k.stopped = true }

func (k *refKernel) alloc() *refEvent {
	e := k.free
	if e == nil {
		return &refEvent{}
	}
	k.free = e.next
	e.next = nil
	e.canceled = false
	return e
}

func (k *refKernel) release(e *refEvent) {
	e.fn = nil
	e.argFn = nil
	e.arg = nil
	e.next = k.free
	k.free = e
}

func (k *refKernel) At(t Time, fn func()) *refEvent {
	e := k.schedule(t)
	e.fn = fn
	return e
}

func (k *refKernel) AtArg(t Time, fn func(any), arg any) *refEvent {
	e := k.schedule(t)
	e.argFn = fn
	e.arg = arg
	return e
}

func (k *refKernel) schedule(t Time) *refEvent {
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

func (k *refKernel) Run(horizon Time) {
	k.stopped = false
	k.drainTo(horizon)
	if k.now < horizon {
		k.now = horizon
	}
}

func (k *refKernel) Step() bool {
	for len(k.heap) > 0 {
		e := k.heap[0]
		k.pop()
		if e.canceled {
			k.release(e)
			continue
		}
		k.fire(e)
		return true
	}
	return false
}

func (k *refKernel) NextEventTime() (Time, bool) {
	for len(k.heap) > 0 {
		e := k.heap[0]
		if !e.canceled {
			return e.at, true
		}
		k.pop()
		k.release(e)
	}
	return 0, false
}

func (k *refKernel) drainTo(limit Time) {
	k.limit, k.draining = limit, true
	for len(k.heap) > 0 && !k.stopped {
		e := k.heap[0]
		if e.at > limit {
			break
		}
		k.pop()
		if e.canceled {
			k.release(e)
			continue
		}
		k.fire(e)
	}
	k.draining = false
}

func (k *refKernel) AdvanceTo(t Time) bool {
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

func (k *refKernel) fire(e *refEvent) {
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

func refEventLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (k *refKernel) push(e *refEvent) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !refEventLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.heap = h
}

func (k *refKernel) pop() {
	h := k.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	k.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if refEventLess(h[j], h[m]) {
				m = j
			}
		}
		if !refEventLess(h[m], last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
}
