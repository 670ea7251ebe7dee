package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frodo"
	"repro/internal/jini"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/upnp"
)

// Figure4 renders Average Update Effectiveness vs interface failure rate
// for the five systems.
func Figure4(res SweepResult) Table { return metricTable(res, "Figure 4", MetricEffectiveness) }

// Figure5 renders Median Update Responsiveness vs interface failure rate.
func Figure5(res SweepResult) Table { return metricTable(res, "Figure 5", MetricResponsiveness) }

// Figure6 renders Efficiency Degradation vs interface failure rate, with
// each system's m' in the legend as the paper does.
func Figure6(res SweepResult) Table {
	t := metricTable(res, "Figure 6", MetricDegradation)
	for _, sys := range res.Systems {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: m'=%d (paper: m'=%d)",
			sys, res.MPrime[sys], PaperMPrime(sys)))
	}
	return t
}

func metricTable(res SweepResult, figure string, m Metric) Table {
	t := Table{Title: fmt.Sprintf("%s: %s vs interface failure (%%)", figure, m), Header: []string{"failure%"}}
	for _, sys := range res.Systems {
		t.Header = append(t.Header, sys.Short())
	}
	for li, l := range res.Params.Lambdas {
		row := []string{pct(l)}
		for _, sys := range res.Systems {
			row = append(row, f3(m.pick(res.Curves[sys].Points[li])))
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
	for i, name := range []string{"Update Responsiveness, R", "Update Effectiveness, F", "Efficiency Degradation, G"} {
		row, paperRow := []string{name}, []string{name + " (paper)"}
		for _, sys := range res.Systems {
			r, f, g := res.Curves[sys].Average()
			row = append(row, f3([3]float64{r, f, g}[i]))
			if p, ok := paper[sys]; ok {
				paperRow = append(paperRow, f3(p.rfg[i]))
			} else {
				paperRow = append(paperRow, "-")
			}
		}
		t.Rows = append(t.Rows, row, paperRow)
	}
	return t
}

// An Arm is one design variant of a VariantFigure: Suffix follows each
// system's short name in the arm's column header, and Set, when not nil,
// edits the options, reading the row value x on a figure with own Rows.
type Arm struct {
	Suffix string
	Set    func(o *Options, x float64)
}

// A VariantFigure sweeps design variants (arms) under the caller's
// design, so a conditioned link or the hardening layer applies to every
// arm that does not set its own, and prints one Update Effectiveness
// column per (system, arm; Systems nil means all five). Its rows are the
// λ grid (Lambdas, else the design's), with one sweep per arm; or, when
// Rows is set, its own axis at λ = 0, with one sweep per (row, arm).
type VariantFigure struct {
	Title, Axis   string
	Systems       []System
	Lambdas, Rows []float64
	Arms          []Arm
	Notes         []string
}

// Render runs the figure's sweeps under params and opts and tabulates them.
func (v VariantFigure) Render(params Params, opts Options, workers int, progress func(done, total int)) Table {
	t := Table{Title: v.Title, Header: []string{v.Axis}, Notes: v.Notes}
	systems := v.Systems
	if systems == nil {
		systems = Systems()
	}
	for _, sys := range systems {
		for _, a := range v.Arms {
			t.Header = append(t.Header, sys.Short()+a.Suffix)
		}
	}
	params = params.withDefaults()
	if v.Lambdas != nil {
		params.Lambdas = v.Lambdas
	}
	xs := params.Lambdas
	if v.Rows != nil {
		xs, params.Lambdas = v.Rows, []float64{0}
	}
	arms := make([]SweepResult, len(v.Arms))
	for i, x := range xs {
		if i == 0 || v.Rows != nil {
			for j, a := range v.Arms {
				o := opts
				if a.Set != nil {
					a.Set(&o, x)
				}
				arms[j] = Sweep(SweepConfig{Systems: systems, Params: params, Opts: o, Workers: workers, Progress: progress})
			}
		}
		li := i // the row's point: its λ, or λ = 0 of the row's own sweeps
		if v.Rows != nil {
			li = 0
		}
		row := []string{pct(x)}
		for _, sys := range systems {
			for j := range v.Arms {
				row = append(row, f3(arms[j].Curves[sys].Points[li].Effectiveness))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figure7 is the PR1 control experiment: both FRODO systems with and
// without PR1 ("A control experiment with and without PR1 ...
// demonstrates the impact of PR1 on the Update Effectiveness of both
// FRODO systems"). The ablation replaces any opts.Frodo.
var Figure7 = VariantFigure{
	Title:   "Figure 7: PR1 impact on FRODO Update Effectiveness",
	Axis:    "failure%",
	Systems: []System{Frodo3P, Frodo2P},
	Arms: []Arm{{}, {Suffix: "-noPR1", Set: func(o *Options, _ float64) {
		o.Frodo = func(c *frodo.Config) { c.Techniques = c.Techniques.Without(core.PR1) }
	}}},
}

// FigurePolling is the CM2 extension experiment: notification-only versus
// notification-plus-persistent-polling, quantifying the §4.2 trade-off
// (polling is the more effective method if persistent, but slower and
// redundant for rarely-changing services).
var FigurePolling = VariantFigure{
	Title:   "Extension: CM1 (notification) vs CM1+CM2 (adding 600s persistent polling) — Update Effectiveness",
	Axis:    "failure%",
	Lambdas: []float64{0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90},
	Arms: []Arm{{}, {Suffix: "+poll", Set: func(o *Options, _ float64) {
		o.UPnP = func(c *upnp.Config) { c.PollPeriod = 600 * sim.Second }
		o.Jini = func(c *jini.Config) { c.PollPeriod = 600 * sim.Second }
		o.Frodo = func(c *frodo.Config) { c.PollPeriod = 600 * sim.Second }
	}}},
	Notes: []string{"polling repairs missed notifications (higher F) at the price of redundant traffic (lower G) and poll-grid latency"},
}

// FigureLoss is the message-loss failure model of the companion study
// [25], with λ reinterpreted as the per-frame drop probability.
var FigureLoss = VariantFigure{
	Title: "Extension: Average Update Effectiveness vs message loss (%) [25]",
	Axis:  "loss%",
	Rows:  []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4},
	Arms:  []Arm{{Set: func(o *Options, loss float64) { o.Loss = loss }}},
}

// adversarialMeanBurst is the mean Gilbert–Elliott burst length (frames)
// of the adversarial figure's burst columns.
const adversarialMeanBurst = 8

// FigureAdversarial compares all five systems under bursty
// (Gilbert–Elliott) loss versus i.i.d. loss at equal average rate, with
// no interface failures — the adversarial-network extension. Correlated
// loss concentrates damage: a burst swallows a whole redundancy train
// (UPnP and Jini send every multicast six times inside ~5ms) where
// i.i.d. loss at the same rate thins it, so equal-average columns
// separate the systems' recovery techniques far more than Fig. 4 does.
var FigureAdversarial = VariantFigure{
	Title: "Extension: Average Update Effectiveness — i.i.d. vs Gilbert–Elliott burst loss at equal average rate",
	Axis:  "loss%",
	Rows:  []float64{0.05, 0.10, 0.20, 0.30},
	Arms: []Arm{
		{Suffix: " iid", Set: func(o *Options, rate float64) { o.Loss = rate }},
		{Suffix: " burst", Set: func(o *Options, rate float64) {
			o.Link = netsim.LinkConfig{Burst: netsim.BurstForAverage(rate, adversarialMeanBurst)}
		}},
	},
	Notes: []string{
		fmt.Sprintf("burst columns use Gilbert–Elliott chains with mean burst length %d frames at the same stationary loss rate", adversarialMeanBurst),
		"BENCH_4: the adversarial figure of EXPERIMENTS.md",
	},
}

// FigureScale is the scale-out extension: one all-system sweep per
// population size N, holding the failure grid small, to chart how each
// system's Update Effectiveness and zero-failure effort m′ respond to
// growing N. The rest of params (churn, Managers, Registries) and opts
// apply to every column.
func FigureScale(params Params, opts Options, workers int, progress func(done, total int)) Table {
	params.Lambdas = []float64{0, 0.30}
	t := Table{
		Title:  "Extension: Update Effectiveness and zero-failure effort vs population size N",
		Header: []string{"system"},
		Notes: []string{"streaming per-cell aggregation keeps sweep memory flat in N; " +
			"combine with -churn/-managers/-registries for populated-network scenarios"},
	}
	for _, sys := range Systems() {
		t.Rows = append(t.Rows, []string{sys.Short()})
	}
	for _, n := range []int{5, 25, 100, 500, 1000} {
		t.Header = append(t.Header, fmt.Sprintf("F@N=%d(0%%)", n), fmt.Sprintf("F@N=%d(30%%)", n), fmt.Sprintf("m'@N=%d", n))
		params.Topology.Users = n
		res := Sweep(SweepConfig{Params: params, Workers: workers, Progress: progress, Opts: opts})
		for i, sys := range Systems() {
			pts := res.Curves[sys].Points
			t.Rows[i] = append(t.Rows[i], f3(pts[0].Effectiveness), f3(pts[1].Effectiveness), fmt.Sprintf("%d", res.MPrime[sys]))
		}
	}
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
	for _, sys := range Systems() {
		spec := RunSpec{System: sys, Lambda: 0, Seed: params.BaseSeed, Params: params, Opts: opts}
		res := Run(spec)
		t.Rows = append(t.Rows, []string{
			sys.String(),
			fmt.Sprintf("%d", res.Effort),
			fmt.Sprintf("%d", PaperMPrime(sys)),
			fmt.Sprintf("%d", res.TotalTransport),
			paper[sys].formula,
		})
	}
	t.Notes = append(t.Notes,
		"transport frames accumulate over the whole run (TCP setup, acks, retransmissions); the Update Efficiency metrics exclude them, as the paper does")
	return t
}

// A Metric is one curve value of a sweep point, for charts and the
// per-metric figures.
type Metric struct {
	name string
	pick func(metrics.Point) float64
}

var (
	// MetricEffectiveness is F(λ) (Fig. 4).
	MetricEffectiveness = Metric{"Average Update Effectiveness", func(p metrics.Point) float64 { return p.Effectiveness }}
	// MetricResponsiveness is R(λ) (Fig. 5).
	MetricResponsiveness = Metric{"Median Update Responsiveness", func(p metrics.Point) float64 { return p.Responsiveness }}
	// MetricDegradation is G(λ) (Fig. 6).
	MetricDegradation = Metric{"Efficiency Degradation", func(p metrics.Point) float64 { return p.Degradation }}
)

func (m Metric) String() string { return m.name }

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
