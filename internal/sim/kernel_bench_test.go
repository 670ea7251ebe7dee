package sim

import "testing"

// BenchmarkKernel measures raw scheduler throughput on two workload
// shapes, both of which allocate nothing in steady state (-benchmem
// should report 0 allocs/op):
//
//   - timers=sub-second: a population of self-rescheduling timers
//     (renewal tickers) plus a stream of one-shot events with random
//     delays (frames in flight), about a quarter of which are canceled
//     before firing (superseded retransmissions). Every timer is due
//     within a second, so the near run stays full and the heap does the
//     work.
//   - timers=paper: the paper run's mix — 64 protocol timers of 120 to
//     1,800 s, one 10–100 µs frame per op, and a 1 s guard per frame
//     (a retransmission timeout) that the frame's delivery cancels.
func BenchmarkKernel(b *testing.B) {
	b.Run("timers=sub-second", func(b *testing.B) {
		const timers = 1024
		k := New(1)
		var tick func()
		tick = func() { k.After(k.UniformDuration(Millisecond, Second), tick) }
		for i := 0; i < timers; i++ {
			k.After(k.UniformDuration(0, Second), tick)
		}
		k.Run(Second) // warm pool and heap
		b.ReportAllocs()
		b.ResetTimer()
		fired := k.Fired()
		for i := 0; i < b.N; i++ {
			e := k.AfterArg(k.UniformDuration(Microsecond, Millisecond), func(any) {}, nil)
			if i&3 == 0 {
				e.Cancel()
			}
			k.Run(k.Now() + Microsecond)
		}
		k.Run(k.Now() + Second)
		b.ReportMetric(float64(k.Fired()-fired)/float64(b.N), "events/op")
	})
	b.Run("timers=paper", func(b *testing.B) {
		const timers = 64
		k := New(1)
		var tick func()
		tick = func() { k.After(k.UniformDuration(120*Second, 1800*Second), tick) }
		for i := 0; i < timers; i++ {
			k.After(k.UniformDuration(0, 1800*Second), tick)
		}
		deliver := func(guard any) { guard.(*Event).Cancel() }
		op := func() {
			guard := k.After(Second, func() {})
			k.AfterArg(k.UniformDuration(10*Microsecond, 100*Microsecond), deliver, guard)
			k.Run(k.Now() + 20*Millisecond)
		}
		for i := 0; i < 1000; i++ {
			op() // warm pool and heap
		}
		b.ReportAllocs()
		b.ResetTimer()
		fired := k.Fired()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.ReportMetric(float64(k.Fired()-fired)/float64(b.N), "events/op")
	})
}

// BenchmarkKernelChurn measures pure heap push/pop with no reuse of the
// run loop: schedule a batch, drain it, repeat — the 4-ary heap's
// sift costs dominate.
func BenchmarkKernelChurn(b *testing.B) {
	k := New(1)
	nop := func(any) {}
	const batch = 4096
	// Warm.
	for i := 0; i < batch; i++ {
		k.AfterArg(k.UniformDuration(0, Second), nop, nil)
	}
	k.Run(k.Now() + 2*Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			k.AfterArg(k.UniformDuration(0, Second), nop, nil)
		}
		k.Run(k.Now() + 2*Second)
	}
	b.ReportMetric(batch, "events/op")
}

// BenchmarkDeadlineRenew measures the lease pattern: a population of
// deadlines, each renewed 15 times per expiry (an 1800 s lease refreshed
// by a 120 s announcement train). One op is one renewal. Renewals move the
// pending event in place, so -benchmem should report 0 allocs/op and the
// queue should stay at one entry per live lease (entries/lease = 1).
func BenchmarkDeadlineRenew(b *testing.B) {
	const leases = 64
	k := New(1)
	ds := make([]*Deadline, leases)
	for i := range ds {
		ds[i] = newDeadline(k, func() {})
	}
	renewals := 0
	peak := 0
	round := func() {
		for _, d := range ds {
			d.SetAfter(1800 * Second)
		}
		k.Run(k.Now() + 120*Second)
		renewals++
		if renewals%15 == 0 {
			k.Run(k.Now() + 1800*Second) // every lease runs out
		}
		peak = max(peak, k.Pending())
	}
	for i := 0; i < 30; i++ {
		round() // warm pool and heap
	}
	peak = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += leases {
		round()
	}
	b.ReportMetric(float64(peak)/leases, "entries/lease")
}
