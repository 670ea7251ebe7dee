package metrics

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// A run whose Users all churned out counts no Users and aggregates to
// "no data", not zero effectiveness.
func TestSummarizeAllExcluded(t *testing.T) {
	r := RunResult{
		ChangeAt: 100 * sim.Second,
		Deadline: 5400 * sim.Second,
		Effort:   3,
		Users: []UserOutcome{
			{User: 1, Excluded: true},
			{User: 2, Excluded: true},
		},
	}
	s := SummarizeInto(r, nil)
	if s.Counted != 0 || s.Reached != 0 {
		t.Errorf("counted/reached = %d/%d, want 0/0", s.Counted, s.Reached)
	}
	if len(s.Resp) != 0 {
		t.Errorf("excluded users produced %d responsiveness samples", len(s.Resp))
	}
	c := NewCell(1)
	c.AddResult(0, r)
	p := c.Point(7)
	if !math.IsNaN(p.Effectiveness) {
		t.Errorf("all-excluded effectiveness = %v, want NaN", p.Effectiveness)
	}
}

// A mixed run counts only the Users that stayed, and reached only those
// consistent before the deadline.
func TestSummarizeWindowMixedExclusion(t *testing.T) {
	r := RunResult{
		ChangeAt: 100 * sim.Second,
		Deadline: 5400 * sim.Second,
		Users: []UserOutcome{
			{User: 1, Reached: true, At: 101 * sim.Second},
			{User: 2, Excluded: true},
			{User: 3, Reached: true, At: 140 * sim.Second},
		},
	}
	s := SummarizeInto(r, nil)
	if s.Counted != 2 || s.Reached != 2 {
		t.Fatalf("counted/reached = %d/%d, want 2/2", s.Counted, s.Reached)
	}
	r.Users[2] = UserOutcome{User: 3, Reached: false}
	if s := SummarizeInto(r, nil); s.Counted != 2 || s.Reached != 1 {
		t.Errorf("unreached: counted/reached = %d/%d, want 2/1", s.Counted, s.Reached)
	}
}

// The λ=0 cell's smallest positive effort is the measured m′; an empty
// cell falls back to 1.
func TestMeasureMPrime(t *testing.T) {
	runs := []RunResult{
		run(0, sim.Second, 9),
		run(0, sim.Second, 7),
		run(0, sim.Second, 8),
	}
	c := NewCell(len(runs))
	for i, r := range runs {
		c.AddResult(i, r)
	}
	if got := c.MinPositiveEffort(); got != 7 {
		t.Errorf("m' = %d, want 7", got)
	}
	if got := NewCell(0).MinPositiveEffort(); got != 1 {
		t.Errorf("m' fallback = %d, want 1", got)
	}
}
