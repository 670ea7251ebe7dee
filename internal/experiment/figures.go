package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frodo"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/plot"
	"repro/internal/sim"
)

// Figure4 renders Average Update Effectiveness vs interface failure rate
// for the five systems.
func Figure4(res SweepResult) Table {
	return metricTable(res, "Figure 4: Average Update Effectiveness vs interface failure (%)",
		func(p metrics.Point) float64 { return p.Effectiveness })
}

// Figure5 renders Median Update Responsiveness vs interface failure rate.
func Figure5(res SweepResult) Table {
	return metricTable(res, "Figure 5: Median Update Responsiveness vs interface failure (%)",
		func(p metrics.Point) float64 { return p.Responsiveness })
}

// Figure6 renders Efficiency Degradation vs interface failure rate, with
// each system's m' in the legend as the paper does.
func Figure6(res SweepResult) Table {
	t := metricTable(res, "Figure 6: Efficiency Degradation vs interface failure (%)",
		func(p metrics.Point) float64 { return p.Degradation })
	for _, sys := range res.Systems {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: m'=%d (paper: m'=%d)",
			sys, res.MPrime[sys], PaperMPrime(sys)))
	}
	return t
}

func metricTable(res SweepResult, title string, get func(metrics.Point) float64) Table {
	t := Table{Title: title, Header: []string{"failure%"}}
	for _, sys := range res.Systems {
		t.Header = append(t.Header, sys.Short())
	}
	for li, l := range res.Params.Lambdas {
		row := []string{pct(l)}
		for _, sys := range res.Systems {
			row = append(row, f3(get(res.Curves[sys].Points[li])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table5 renders the metric averages across failure rates 0–90%, with
// the paper's values alongside.
func Table5(res SweepResult) Table {
	t := Table{
		Title:  "Table 5: Average metrics results across failure rates from 0% to 90%",
		Header: []string{"Update Metric"},
	}
	for _, sys := range res.Systems {
		t.Header = append(t.Header, sys.Short())
	}
	paper := map[System][3]float64{
		UPnP:    {0.553, 0.922, 0.385},
		Jini1:   {0.474, 0.802, 0.311},
		Jini2:   {0.476, 0.825, 0.361},
		Frodo3P: {0.580, 0.878, 0.428},
		Frodo2P: {0.666, 0.861, 0.429},
	}
	rows := []struct {
		name string
		pick func(r, f, g float64) float64
		idx  int
	}{
		{"Update Responsiveness, R", func(r, f, g float64) float64 { return r }, 0},
		{"Update Effectiveness, F", func(r, f, g float64) float64 { return f }, 1},
		{"Efficiency Degradation, G", func(r, f, g float64) float64 { return g }, 2},
	}
	for _, rd := range rows {
		row := []string{rd.name}
		paperRow := []string{rd.name + " (paper)"}
		for _, sys := range res.Systems {
			r, f, g := res.Curves[sys].Average()
			row = append(row, f3(rd.pick(r, f, g)))
			if pv, ok := paper[sys]; ok {
				paperRow = append(paperRow, f3(pv[rd.idx]))
			} else {
				paperRow = append(paperRow, "-")
			}
		}
		t.Rows = append(t.Rows, row, paperRow)
	}
	return t
}

// Figure7Sweep runs the PR1 control experiment: both FRODO systems with
// and without PR1 ("A control experiment with and without PR1 ...
// demonstrates the impact of PR1 on the Update Effectiveness of both
// FRODO systems"). Both arms run under opts, so a conditioned link
// conditions the ablation too; the ablation replaces any opts.Frodo.
func Figure7Sweep(params Params, opts Options, workers int, progress func(done, total int)) (with, without SweepResult) {
	systems := []System{Frodo3P, Frodo2P}
	with = Sweep(SweepConfig{Systems: systems, Params: params, Workers: workers, Progress: progress, Opts: opts})
	noPR1 := opts
	noPR1.Frodo = func(c *frodo.Config) { c.Techniques = c.Techniques.Without(core.PR1) }
	without = Sweep(SweepConfig{Systems: systems, Params: params, Workers: workers, Progress: progress, Opts: noPR1})
	return with, without
}

// Figure7 renders the PR1 ablation's effectiveness series.
func Figure7(with, without SweepResult) Table {
	t := Table{
		Title: "Figure 7: PR1 impact on FRODO Update Effectiveness",
		Header: []string{"failure%",
			"frodo3p", "frodo3p-noPR1", "frodo2p", "frodo2p-noPR1"},
	}
	for li, l := range with.Params.Lambdas {
		row := []string{pct(l)}
		row = append(row, f3(with.Curves[Frodo3P].Points[li].Effectiveness))
		row = append(row, f3(without.Curves[Frodo3P].Points[li].Effectiveness))
		row = append(row, f3(with.Curves[Frodo2P].Points[li].Effectiveness))
		row = append(row, f3(without.Curves[Frodo2P].Points[li].Effectiveness))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// AdversarialLossRates is the loss grid of the adversarial figure.
var AdversarialLossRates = []float64{0.05, 0.10, 0.20, 0.30}

// AdversarialMeanBurst is the mean Gilbert–Elliott burst length (frames)
// of the adversarial figure's burst column.
const AdversarialMeanBurst = 8

// FigureAdversarial compares all five systems under bursty
// (Gilbert–Elliott) loss versus i.i.d. loss at equal average rate, with
// no interface failures — the adversarial-network extension. Correlated
// loss concentrates damage: a burst swallows a whole redundancy train
// (UPnP and Jini send every multicast six times inside ~5ms) where
// i.i.d. loss at the same rate thins it, so equal-average columns
// separate the systems' recovery techniques far more than Fig. 4 does.
// Each column sets its own link model on opts; the rest of opts (the
// hardening) applies to every column.
func FigureAdversarial(params Params, opts Options, workers int, progress func(done, total int)) Table {
	params.Lambdas = []float64{0}
	t := Table{
		Title:  "Extension: Average Update Effectiveness — i.i.d. vs Gilbert–Elliott burst loss at equal average rate",
		Header: []string{"loss%"},
	}
	for _, sys := range Systems() {
		t.Header = append(t.Header, sys.Short()+" iid", sys.Short()+" burst")
	}
	for _, rate := range AdversarialLossRates {
		iidOpts, burstOpts := opts, opts
		iidOpts.Loss = rate
		burstOpts.Link = netsim.LinkConfig{Burst: netsim.BurstForAverage(rate, AdversarialMeanBurst)}
		iid := Sweep(SweepConfig{Params: params, Workers: workers, Progress: progress, Opts: iidOpts})
		burst := Sweep(SweepConfig{Params: params, Workers: workers, Progress: progress, Opts: burstOpts})
		row := []string{pct(rate)}
		for _, sys := range Systems() {
			row = append(row,
				f3(iid.Curves[sys].Points[0].Effectiveness),
				f3(burst.Curves[sys].Points[0].Effectiveness))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("burst columns use Gilbert–Elliott chains with mean burst length %d frames at the same stationary loss rate", AdversarialMeanBurst),
		"BENCH_4: the adversarial figure of EXPERIMENTS.md")
	return t
}

// Table2 measures the zero-failure update message counts of every system
// — the paper's Table 2 / Fig. 6 legend values — by running one
// failure-free scenario each and reporting the effort window counts plus
// the transport frames the paper excludes. The runs use opts, so the
// table follows the design's link model like every other figure.
func Table2(params Params, opts Options) Table {
	t := Table{
		Title: "Table 2: update messages to make N Users consistent (no failures)",
		Header: []string{"system", "discovery msgs (y at λ=0)", "paper m'",
			"transport frames in window", "formula"},
	}
	formulas := map[System]string{
		UPnP:    "3N without TCP messages",
		Jini1:   "N+2 without TCP messages",
		Jini2:   "2(N+2) without TCP messages",
		Frodo3P: "N+2",
		Frodo2P: "N+2",
	}
	for _, sys := range Systems() {
		spec := RunSpec{System: sys, Lambda: 0, Seed: params.BaseSeed, Params: params, Opts: opts}
		res := Run(spec)
		t.Rows = append(t.Rows, []string{
			sys.String(),
			fmt.Sprintf("%d", res.Effort),
			fmt.Sprintf("%d", PaperMPrime(sys)),
			fmt.Sprintf("%d", res.TotalTransport),
			formulas[sys],
		})
	}
	t.Notes = append(t.Notes,
		"transport frames accumulate over the whole run (TCP setup, acks, retransmissions); the Update Efficiency metrics exclude them, as the paper does")
	return t
}

// Metric selects a curve value for chart rendering.
type Metric int

const (
	// MetricEffectiveness is F(λ) (Fig. 4).
	MetricEffectiveness Metric = iota
	// MetricResponsiveness is R(λ) (Fig. 5).
	MetricResponsiveness
	// MetricDegradation is G(λ) (Fig. 6).
	MetricDegradation
)

func (m Metric) String() string {
	switch m {
	case MetricEffectiveness:
		return "Average Update Effectiveness"
	case MetricResponsiveness:
		return "Median Update Responsiveness"
	case MetricDegradation:
		return "Efficiency Degradation"
	default:
		return "?"
	}
}

func (m Metric) pick(p metrics.Point) float64 {
	switch m {
	case MetricEffectiveness:
		return p.Effectiveness
	case MetricResponsiveness:
		return p.Responsiveness
	case MetricDegradation:
		return p.Degradation
	default:
		return 0
	}
}

// Chart renders one metric's curves as an ASCII chart in the style of the
// paper's figures.
func Chart(res SweepResult, m Metric) string {
	xLabels := make([]string, len(res.Params.Lambdas))
	for i, l := range res.Params.Lambdas {
		xLabels[i] = pct(l)
	}
	series := make([]plot.Series, 0, len(res.Systems))
	for _, sys := range res.Systems {
		vals := make([]float64, len(res.Curves[sys].Points))
		for i, p := range res.Curves[sys].Points {
			vals[i] = m.pick(p)
		}
		series = append(series, plot.Series{Name: sys.String(), Values: vals})
	}
	title := fmt.Sprintf("%s vs interface failure (%%)", m)
	return plot.Chart(title, xLabels, series, plot.Config{Width: 72, Height: 22, YMin: 0, YMax: 1})
}

// AverageWindow reports the mean recovery-window length at each λ for a
// system — a diagnostic series used by the ablation benches. It reads
// the streaming cell summaries, so it works without RetainRaw.
func AverageWindow(res SweepResult, sys System) []sim.Duration {
	out := make([]sim.Duration, len(res.Params.Lambdas))
	for li, cell := range res.Cells[sys] {
		out[li] = cell.AvgWindow()
	}
	return out
}
