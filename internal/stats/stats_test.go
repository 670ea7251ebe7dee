package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) not NaN")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, 0, 1}, 0},
	}
	for _, c := range cases {
		if got := Median(c.in); !almost(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) not NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); !almost(got, 1) {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); !almost(got, 5) {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); !almost(got, 2) {
		t.Errorf("q.25 = %v", got)
	}
	if got := Quantile(xs, 0.1); !almost(got, 1.4) {
		t.Errorf("q.1 = %v (interpolated)", got)
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q not NaN")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(-1, 0, 1) != 0 || Clamp(2, 0, 1) != 1 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

// Property: the median lies within [min, max] and is invariant under
// permutation (sorted input gives the same answer).
func TestQuickMedianBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return math.IsNaN(Median(clean))
		}
		m := Median(clean)
		if m < slices.Min(clean) || m > slices.Max(clean) {
			return false
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		return almost(m, Median(sorted))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(xs []float64, qa, qb uint8) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		return Quantile(clean, a) <= Quantile(clean, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
