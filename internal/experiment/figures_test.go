package experiment

import (
	"fmt"
	"reflect"
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
	tab := Figure7.Render(fastParams(2, []float64{0, 0.5}), Options{}, 4, nil)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if want := []string{"failure%", "frodo3p", "frodo3p-noPR1", "frodo2p", "frodo2p-noPR1"}; !reflect.DeepEqual(tab.Header, want) {
		t.Fatalf("header = %v, want %v", tab.Header, want)
	}
}

// column returns one column of a table's rows.
func column(tab Table, col int) []string {
	var out []string
	for _, row := range tab.Rows {
		out = append(out, row[col])
	}
	return out
}

// Figure 7 and Table 2 run under the design's link model, as figures
// 4–6 do: a burst-loss design must move both arms of the ablation and
// the zero-failure counts.
func TestFiguresKeepTheLinkDesign(t *testing.T) {
	p := fastParams(2, []float64{0.3})
	burst := Options{Link: netsim.LinkConfig{Burst: netsim.BurstForAverage(0.3, 8)}}
	clean, lossy := Figure7.Render(p, Options{}, 2, nil), Figure7.Render(p, burst, 2, nil)
	for col, arm := range []string{"PR1", "no-PR1"} {
		// Columns 1 and 3 are the PR1 arm, 2 and 4 the no-PR1 arm.
		a := append(column(clean, 1+col), column(clean, 3+col)...)
		b := append(column(lossy, 1+col), column(lossy, 3+col)...)
		if reflect.DeepEqual(a, b) {
			t.Errorf("Figure 7's %s arm ignores the burst-loss design: %v", arm, a)
		}
	}
	if Table2(p, Options{}).String() == Table2(p, burst).String() {
		t.Error("Table 2 ignores the burst-loss design")
	}
}

// A one-λ Figure 7 sweep yields one row and carries the FRODO 3-party
// column without PR1.
func TestFigure7SweepHasAblationColumn(t *testing.T) {
	tab := Figure7.Render(fastParams(3, []float64{0.3}), Options{}, 2, nil)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "frodo3p-noPR1") {
		t.Error("ablation column missing")
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
	tab := FigureAdversarial.Render(p, Options{}, 0, nil)
	if len(tab.Rows) != len(FigureAdversarial.Rows) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(FigureAdversarial.Rows))
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
