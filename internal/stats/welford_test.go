package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) {
		t.Errorf("empty mean = %v, want NaN", w.Mean())
	}
	if w.Variance() != 0 || w.CI95() != 0 {
		t.Errorf("empty variance/CI = %v/%v, want 0", w.Variance(), w.CI95())
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	xs := []float64{0.1, 0.9, 0.5, 0.25, 0.75, 1, 0}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if got, want := w.Mean(), Mean(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// Sample std dev from the two-pass population formula.
	n := float64(len(xs))
	want := stdDev(xs) * math.Sqrt(n/(n-1))
	if got := w.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", got, want)
	}
	// CI95 is the two-pass 1.96·s/√n.
	hw := 1.96 * want / math.Sqrt(n)
	if got := w.CI95(); math.Abs(got-hw) > 1e-12 {
		t.Errorf("ci95 = %v, want %v", got, hw)
	}
}

func TestQuickWelfordAgreesWithSlices(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var w Welford
		for i, r := range raw {
			xs[i] = float64(r) / 65535
			w.Add(xs[i])
		}
		if math.Abs(w.Mean()-Mean(xs)) > 1e-9 {
			return false
		}
		hw := 0.0
		if n := float64(len(xs)); n >= 2 {
			hw = 1.96 * stdDev(xs) * math.Sqrt(n/(n-1)) / math.Sqrt(n)
		}
		return math.Abs(w.CI95()-hw) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
