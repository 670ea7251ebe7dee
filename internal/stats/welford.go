package stats

import "math"

// Welford is a streaming mean accumulator (the mean update of Welford's
// online algorithm). It lets the sweep aggregation compute per-cell means
// in O(1) memory per metric instead of retaining every run's raw
// observations. Updates must be applied in a deterministic order when
// bit-identical results are required across worker counts: floating-point
// accumulation is not associative.
type Welford struct {
	n    int
	mean float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// Mean reports the running mean, NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}
