package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is the registry's latency/duration recorder: logarithmic
// buckets at ~5% relative resolution from 1µs upward, lock-free atomic
// counts, fixed memory. It lifts the bucket geometry of the Histogram
// sdload shared across its client goroutines, trading that type's
// mutex-and-growable-slice design for a fixed atomic array so Observe
// allocates nothing and never blocks.
//
// Virtual durations (sim.Duration) and wall durations (time.Duration)
// are both int64 nanoseconds; callers pick one per series and stick to
// it.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64 // math.MaxInt64 while empty
	max    atomic.Int64
}

// histBase is the per-bucket growth factor (≈5% resolution).
const histBase = 1.05

// histMin is the smallest distinguishable duration.
const histMin = time.Microsecond

// histBuckets fixes the array size: 1µs·1.05^511 ≈ 18.6 hours, far
// beyond any latency or virtual window this repo measures; larger
// samples clamp into the last bucket.
const histBuckets = 512

var histLogBase = math.Log(histBase)

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

func histBucket(d time.Duration) int {
	if d <= histMin {
		return 0
	}
	b := int(math.Log(float64(d)/float64(histMin)) / histLogBase)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func histValue(bucket int) time.Duration {
	return time.Duration(float64(histMin) * math.Pow(histBase, float64(bucket)+0.5))
}

// Observe records one sample. Safe from any goroutine; allocates
// nothing.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[histBucket(d)].Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.min.Load()
		if int64(d) >= old || h.min.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			break
		}
	}
}

// HistSummary is one self-consistent snapshot of a histogram.
type HistSummary struct {
	N                  uint64
	Mean, Min, Max     time.Duration
	P50, P95, P99, Sum time.Duration
}

// Summary snapshots the histogram. Every field is derived from one
// pass over the bucket array — the count IS the sum of the buckets the
// quantiles were computed from, so a scrape racing with Observe can
// never publish a torn summary (a p99 over more samples than the
// reported n). This is the same single-snapshot rule the PR-6 fix
// imposed on the live Histogram's Summary.
func (h *Histogram) Summary() HistSummary {
	var counts [histBuckets]uint64
	var n uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		n += c
	}
	s := HistSummary{N: n}
	if n == 0 {
		return s
	}
	// sum/min/max ride separate atomics; a concurrent Observe can skew
	// them by a sample relative to the buckets, so clamp the mean into
	// the quantile range rather than pretending to a consistency the
	// separate reads cannot give.
	s.Sum = time.Duration(h.sum.Load())
	s.Min = time.Duration(h.min.Load())
	s.Max = time.Duration(h.max.Load())
	s.Mean = s.Sum / time.Duration(n)
	q := quantiles(&counts, n, s.Min, s.Max, 0.50, 0.95, 0.99)
	s.P50, s.P95, s.P99 = q[0], q[1], q[2]
	if s.Mean < s.Min {
		s.Mean = s.Min
	}
	if s.Mean > s.Max {
		s.Mean = s.Max
	}
	return s
}

// quantiles walks one snapshotted bucket array for the given ranks
// (ascending qs). Bucket midpoints are clamped to [min, max]; bucket 0
// spans everything up to 1µs, so it reports the observed minimum.
func quantiles(counts *[histBuckets]uint64, n uint64, min, max time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	ranks := make([]uint64, len(qs))
	for i, q := range qs {
		r := uint64(math.Ceil(q * float64(n)))
		if r < 1 {
			r = 1
		}
		if r > n {
			r = n
		}
		ranks[i] = r
	}
	var seen uint64
	qi := 0
	for b := range counts {
		seen += counts[b]
		for qi < len(qs) && seen >= ranks[qi] {
			v := histValue(b)
			if b == 0 {
				v = min
			}
			if v > max {
				v = max
			}
			if v < min {
				v = min
			}
			out[qi] = v
			qi++
		}
		if qi == len(qs) {
			break
		}
	}
	return out
}

// String renders the summary in sdload's report format.
func (s HistSummary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.N, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}
