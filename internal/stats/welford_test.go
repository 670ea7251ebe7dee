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
		return math.Abs(w.Mean()-Mean(xs)) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
