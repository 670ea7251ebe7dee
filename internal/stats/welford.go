package stats

import "math"

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm). It lets the sweep aggregation compute per-cell statistics
// in O(1) memory per metric instead of retaining every run's raw
// observations. Updates must be applied in a deterministic order when
// bit-identical results are required across worker counts: floating-point
// accumulation is not associative.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean reports the running mean, NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance reports the sample variance (n−1 denominator), 0 for fewer
// than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev reports the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 reports the half-width of the mean's 95% confidence interval
// under the normal approximation (1.96·s/√n), 0 for fewer than two
// observations.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.StdDev() / math.Sqrt(float64(w.n))
}
