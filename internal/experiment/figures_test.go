package experiment

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func miniSweep(t *testing.T) SweepResult {
	t.Helper()
	return Sweep(SweepConfig{
		Systems: Systems(),
		Params:  fastParams(2, []float64{0, 0.5}),
		Workers: 4,
	})
}

func TestChartRendersAllSystems(t *testing.T) {
	res := miniSweep(t)
	for _, m := range []Metric{MetricEffectiveness, MetricResponsiveness, MetricDegradation} {
		out := Chart(res, m)
		if !strings.Contains(out, m.String()) {
			t.Errorf("chart missing title for %v", m)
		}
		for _, sys := range Systems() {
			if !strings.Contains(out, sys.String()) {
				t.Errorf("chart legend missing %v", sys)
			}
		}
	}
}

func TestFigure7TableShape(t *testing.T) {
	p := fastParams(2, []float64{0, 0.5})
	with, without := Figure7Sweep(p, 4, nil)
	tab := Figure7(with, without)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Header) != 5 {
		t.Fatalf("header = %v", tab.Header)
	}
}

// A one-λ Figure 7 sweep yields one row and carries the FRODO 3-party
// column without PR1.
func TestFigure7SweepHasAblationColumn(t *testing.T) {
	with, without := Figure7Sweep(fastParams(3, []float64{0.3}), 2, nil)
	tab := Figure7(with, without)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "frodo3p-noPR1") {
		t.Error("ablation column missing")
	}
}

func TestAverageWindowShrinksWithHealth(t *testing.T) {
	res := miniSweep(t)
	for _, sys := range Systems() {
		w := AverageWindow(res, sys)
		if len(w) != 2 {
			t.Fatalf("%v: %d windows", sys, len(w))
		}
		// λ=0 recovery completes within a second of the change.
		if w[0] > 2*sim.Second {
			t.Errorf("%v: zero-failure window %v, want tiny", sys, w[0])
		}
		if w[1] <= w[0] {
			t.Errorf("%v: window did not grow with failures: %v vs %v", sys, w[1], w[0])
		}
	}
}

func TestTopologyMatchesBuild(t *testing.T) {
	for _, sys := range Systems() {
		regs, mgr, firstUser := PaperLayout(sys)
		k := sim.New(1)
		sc := Build(sys, k, 5, Options{})
		if sc.ManagerID != mgr {
			t.Errorf("%v: ManagerID %d, Topology says %d", sys, sc.ManagerID, mgr)
		}
		if len(sc.UserIDs) == 0 || sc.UserIDs[0] != firstUser {
			t.Errorf("%v: first user %v, Topology says %d", sys, sc.UserIDs, firstUser)
		}
		for _, r := range regs {
			if int(r) >= sc.Net.Nodes() {
				t.Errorf("%v: registry id %d out of range", sys, r)
			}
		}
	}
}

func TestRunLoggedAnnotations(t *testing.T) {
	_, log := RunLogged(RunSpec{System: Frodo2P, Lambda: 0.2, Seed: 3,
		Params: DefaultParams()}, false)
	joined := strings.Join(log, "\n")
	for _, want := range []string{"service changed at", "update effort"} {
		if !strings.Contains(joined, want) {
			t.Errorf("log missing %q", want)
		}
	}
}

// The event log annotates the change and the effort, and shows the
// interface transitions (at λ=0.3 every node fails once).
func TestRunLoggedShowsInterfaceFailures(t *testing.T) {
	_, log := RunLogged(RunSpec{System: UPnP, Lambda: 0.3, Seed: 9,
		Params: DefaultParams()}, false)
	if len(log) == 0 {
		t.Fatal("empty event log")
	}
	joined := strings.Join(log, "\n")
	for _, want := range []string{"service changed at", "update effort", "down"} {
		if !strings.Contains(joined, want) {
			t.Errorf("log missing %q", want)
		}
	}
}

// The adversarial figure compares both loss models at equal average rate
// for every system, and its values are probabilities.
func TestFigureAdversarialShape(t *testing.T) {
	p := DefaultParams()
	p.Runs = 1
	tab := FigureAdversarial(p, 0, nil)
	if len(tab.Rows) != len(AdversarialLossRates) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(AdversarialLossRates))
	}
	wantCols := 1 + 2*len(Systems())
	if len(tab.Header) != wantCols {
		t.Fatalf("header = %v, want %d columns", tab.Header, wantCols)
	}
	for _, row := range tab.Rows {
		if len(row) != wantCols {
			t.Fatalf("row %v has %d columns, want %d", row, len(row), wantCols)
		}
		for _, cell := range row[1:] {
			var f float64
			if _, err := fmt.Sscanf(cell, "%f", &f); err != nil || f < 0 || f > 1 {
				t.Fatalf("cell %q is not a probability", cell)
			}
		}
	}
}

// Partitions scheduled through Params isolate the bisected sides for the
// window: a split across the change leaves side-B users stale during the
// partition and recovery resumes after the heal.
func TestParamsPartitionsAffectRun(t *testing.T) {
	p := DefaultParams()
	p.ChangeMin, p.ChangeMax = 2000*sim.Second, 2000*sim.Second
	base := Run(RunSpec{System: UPnP, Lambda: 0, Seed: 2, Params: p})

	p.Partitions = []netsim.Partition{
		{Start: 1900 * sim.Second, Duration: 2000 * sim.Second, Bisect: true},
	}
	split := Run(RunSpec{System: UPnP, Lambda: 0, Seed: 2, Params: p})
	var delayed int
	for i := range split.Users {
		if split.Users[i].Reached && base.Users[i].Reached && split.Users[i].At > base.Users[i].At {
			delayed++
		}
	}
	if delayed == 0 {
		t.Error("partition across the change delayed no user's consistency")
	}
}
