package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func run(changeAt, deadline sim.Time, effort int, userTimes ...sim.Time) RunResult {
	r := RunResult{ChangeAt: changeAt, Deadline: deadline, Effort: effort}
	for i, at := range userTimes {
		if at < 0 {
			r.Users = append(r.Users, UserOutcome{User: 0, Reached: false})
			continue
		}
		_ = i
		r.Users = append(r.Users, UserOutcome{User: 0, Reached: true, At: at})
	}
	return r
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestResponsivenessDefinition(t *testing.T) {
	// C=1000, D=5400 => available 4400. U=2100 => L=0.25 => 1-L=0.75.
	r := run(1000*sim.Second, 5400*sim.Second, 7, 2100*sim.Second)
	got := r.AppendResponsivenesses(nil)
	if len(got) != 1 || !almost(got[0], 0.75) {
		t.Errorf("responsiveness = %v, want [0.75]", got)
	}
}

func TestResponsivenessUnreachedIsZero(t *testing.T) {
	r := run(1000*sim.Second, 5400*sim.Second, 7, -1)
	if got := r.AppendResponsivenesses(nil); got[0] != 0 {
		t.Errorf("unreached user responsiveness = %v, want 0", got[0])
	}
}

func TestComputeEffectiveness(t *testing.T) {
	runs := []RunResult{
		run(1000*sim.Second, 5400*sim.Second, 7, 1001*sim.Second, -1),
		run(1000*sim.Second, 5400*sim.Second, 7, 1001*sim.Second, 1002*sim.Second),
	}
	c := cellOf(runs)
	p := c.Point(7)
	if !almost(p.Effectiveness, 0.75) {
		t.Errorf("F = %v, want 0.75", p.Effectiveness)
	}
	if c.Runs() != 2 {
		t.Errorf("Runs = %d", c.Runs())
	}
}

func TestComputeResponsivenessIsMedian(t *testing.T) {
	// Three users at 1-L = 1.0, 0.5, 0.0 => median 0.5. The mean would be
	// 0.5 too, so add an outlier pattern: 1.0, 1.0, 0.0, 0.0, 0.5 =>
	// median 0.5, mean 0.5... use distinct: 0.9, 0.8, 0.1 => median 0.8.
	c, d := 0*sim.Second, 100*sim.Second
	runs := []RunResult{run(c, d, 7,
		10*sim.Second, // 1-L = 0.9
		20*sim.Second, // 0.8
		90*sim.Second, // 0.1
	)}
	p := cellOf(runs).Point(7)
	if !almost(p.Responsiveness, 0.8) {
		t.Errorf("R = %v, want median 0.8", p.Responsiveness)
	}
}

func TestComputeEfficiencyAndDegradation(t *testing.T) {
	runs := []RunResult{
		run(0, 100*sim.Second, 14, 1*sim.Second),
		run(0, 100*sim.Second, 28, 1*sim.Second),
	}
	c := cellOf(runs)
	p := c.Point(14)
	// E = mean(7/14, 7/28) = mean(0.5, 0.25) = 0.375
	if e := c.efficiency(7); !almost(e, 0.375) {
		t.Errorf("E = %v, want 0.375", e)
	}
	// G = mean(14/14, 14/28) = 0.75
	if !almost(p.Degradation, 0.75) {
		t.Errorf("G = %v, want 0.75", p.Degradation)
	}
}

func TestComputeZeroEffort(t *testing.T) {
	c := cellOf([]RunResult{run(0, 100*sim.Second, 0, -1)})
	if e, g := c.efficiency(7), c.Point(7).Degradation; e != 1 || g != 1 {
		t.Errorf("zero-effort run E=%v G=%v, want 1", e, g)
	}
}

func TestComputeEmpty(t *testing.T) {
	p := cellOf(nil).Point(7)
	if !math.IsNaN(p.Responsiveness) || !math.IsNaN(p.Effectiveness) {
		t.Error("empty compute should be NaN")
	}
}

func TestCurveAverage(t *testing.T) {
	c := Curve{Points: []Point{
		{Responsiveness: 1.0, Effectiveness: 1.0, Degradation: 1.0},
		{Responsiveness: 0.5, Effectiveness: 0.8, Degradation: 0.6},
	}}
	r, f, g := c.Average()
	if !almost(r, 0.75) || !almost(f, 0.9) || !almost(g, 0.8) {
		t.Errorf("averages = %v %v %v", r, f, g)
	}
}

// Property: responsiveness samples are always within [0,1] and a user
// reaching consistency strictly earlier never scores lower.
func TestQuickResponsivenessBounded(t *testing.T) {
	f := func(uRaw, cRaw uint32) bool {
		c := sim.Time(cRaw % 2700)
		d := c + 2700*sim.Second
		u := c + sim.Time(uRaw)%(d-c)
		r := run(c, d, 7, u)
		v := r.AppendResponsivenesses(nil)[0]
		if v < 0 || v > 1 {
			return false
		}
		earlier := run(c, d, 7, c+(u-c)/2)
		return earlier.AppendResponsivenesses(nil)[0] >= v-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// cellOf folds the runs of one (system, λ) cell into the streaming Cell
// a sweep uses.
func cellOf(runs []RunResult) *Cell {
	c := NewCell(len(runs))
	for i, r := range runs {
		c.AddResult(i, r)
	}
	return c
}
