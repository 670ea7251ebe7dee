// Command sdsweep regenerates the paper's figures and tables: it runs the
// full interface-failure sweep (λ = 0.00 … 0.90, X runs per point, five
// systems) on a parallel worker pool and prints the requested figure's
// data series as an aligned table or CSV.
//
// Usage:
//
//	sdsweep -figure 4            # Average Update Effectiveness (Fig. 4)
//	sdsweep -figure 5            # Median Update Responsiveness (Fig. 5)
//	sdsweep -figure 6            # Efficiency Degradation (Fig. 6)
//	sdsweep -figure 7            # PR1 ablation on FRODO (Fig. 7)
//	sdsweep -figure table2       # update message counts at zero failure (Table 2)
//	sdsweep -figure table5       # metric averages across failure rates (Table 5)
//	sdsweep -figure all -runs 30 # every paper figure and table, paper-sized
//	sdsweep -figure loss         # extension: message-loss failure model
//	sdsweep -figure polling      # extension: notification vs notification plus persistent polling
//	sdsweep -figure scale        # extension: F and m′ vs population size N
//	sdsweep -figure adversarial  # extension: burst vs i.i.d. loss at equal rate
//	sdsweep -figure hardening    # extension: baseline vs hardened under the hunted fault mix
//	sdsweep -figure 4 -harden    # any figure with the protocol-hardening layer on
//	sdsweep -scenario f.json     # a spec or hunted fixture as the design; λ stays the sweep grid
//
// Adversarial network knobs (apply to every figure but adversarial, loss
// and hardening, which fix their own link model and refuse them; hardening
// also refuses -partition, -churn, -absence, -arrivals, -harden and a
// spec's "duration_sec", fixing those fields itself):
//
//	sdsweep -figure 4 -burst-loss 0.2 -burst-len 8   # Gilbert–Elliott loss
//	sdsweep -figure 4 -delay-dist pareto             # heavy-tailed delay
//	sdsweep -figure 4 -partition 3000:4000           # transient bisection
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/experiment"
	"repro/internal/hunt"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/verify"
)

// A figure is one value of -figure.
type figure struct {
	name   string
	main   bool            // reads the main λ sweep, run once before it
	fixes  []string        // spec fields it sets itself, so refuses in the design (keys of fixable)
	inAll  bool            // -figure all prints it
	render func(o *output) // nil for all, which prints every inAll figure in order
}

// figures is every -figure value, in the order -figure all prints them.
var figures = []figure{
	{name: "table2", inAll: true, render: func(o *output) { o.emit(experiment.Table2(o.params, o.opts)) }},
	{name: "4", main: true, inAll: true, render: func(o *output) {
		o.emit(experiment.Figure4(o.main))
		o.chart(experiment.MetricEffectiveness)
	}},
	{name: "5", main: true, inAll: true, render: func(o *output) {
		o.emit(experiment.Figure5(o.main))
		o.chart(experiment.MetricResponsiveness)
	}},
	{name: "6", main: true, inAll: true, render: func(o *output) {
		o.emit(experiment.Figure6(o.main))
		o.chart(experiment.MetricDegradation)
	}},
	{name: "table5", main: true, inAll: true, render: func(o *output) { o.emit(experiment.Table5(o.main)) }},
	{name: "7", inAll: true, render: variants(experiment.Figure7)},
	{name: "loss", fixes: []string{"link"}, render: variants(experiment.FigureLoss)},
	{name: "polling", render: variants(experiment.FigurePolling)},
	{name: "scale", render: func(o *output) {
		o.emit(experiment.FigureScale(o.params, o.opts, o.workers, o.progress))
	}},
	{name: "adversarial", fixes: []string{"link"}, render: variants(experiment.FigureAdversarial)},
	{name: "hardening", fixes: verify.HardeningFixes, render: func(o *output) {
		o.emit(verify.FigureHardening(o.params, o.workers, o.progress))
	}},
	{name: "all", main: true},
}

// fixable is every spec field a figure may fix, by its JSON name: what
// it is, how to drop it, and whether a design sets it.
var fixable = map[string]struct {
	what, drop string
	set        func(s *experiment.ScenarioSpec) bool
}{
	"link": {"link model", `the link flags or the spec's "link"`, func(s *experiment.ScenarioSpec) bool {
		o := s.Options()
		return o.Loss != 0 || o.Link != (netsim.LinkConfig{})
	}},
	"hardened":   {"hardening modes", `-harden or the spec's "hardened"`, func(s *experiment.ScenarioSpec) bool { return s.Hardened }},
	"partitions": {"partitions", `-partition or the spec's "partitions"`, func(s *experiment.ScenarioSpec) bool { return len(s.Partitions) > 0 }},
	"churn": {"churn", `-churn, -absence, -arrivals or the spec's "churn"`,
		func(s *experiment.ScenarioSpec) bool { return s.Churn != (experiment.SpecChurn{}) }},
	"duration_sec": {"run duration", `the spec's "duration_sec"`, func(s *experiment.ScenarioSpec) bool { return s.DurationSec != 0 }},
}

// output is what a renderer reads and prints through: the resolved
// design, the main λ sweep when the figure reads it, and the format.
type output struct {
	params    experiment.Params
	opts      experiment.Options
	workers   int
	progress  func(done, total int)
	main      experiment.SweepResult
	stdout    io.Writer
	csv, plot bool
}

func (o *output) emit(t experiment.Table) {
	if o.csv {
		fmt.Fprint(o.stdout, t.CSV())
	} else {
		fmt.Fprintln(o.stdout, t)
	}
}

// chart draws one metric of the main sweep under -plot.
func (o *output) chart(m experiment.Metric) {
	if o.plot {
		fmt.Fprintln(o.stdout, experiment.Chart(o.main, m))
	}
}

// variants renders a variant figure under the design.
func variants(v experiment.VariantFigure) func(o *output) {
	return func(o *output) { o.emit(v.Render(o.params, o.opts, o.workers, o.progress)) }
}

// config is the part of the command line that fixes what runs; resolve
// checks it and turns it into the sweep's parameters.
type config struct {
	figure, scenario string
	runs             int
	design           experiment.Flags
}

func (c *config) register(fs *flag.FlagSet) {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	// The default is the last row, all.
	fs.StringVar(&c.figure, "figure", names[len(names)-1], "figure or table to regenerate: "+strings.Join(names, "|"))
	fs.IntVar(&c.runs, "runs", 30, "runs per (system, λ) point (X in the paper)")
	fs.StringVar(&c.scenario, "scenario", "", "run this scenario spec or hunted fixture (strictly validated) in place of the default design")
	c.design.Spec = experiment.ScenarioSpec{Seed: 1, Link: experiment.SpecLink{BurstLen: 8, DelayDist: "uniform"}}
	c.design.Register(fs, "seed", "users", "managers", "registries", "services", "churn", "absence", "arrivals",
		"burst-loss", "burst-len", "delay-dist", "delay-sigma", "delay-alpha", "partition", "harden")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run runs one command line, writing the figures to stdout, and returns
// the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var c config
	c.register(fs)
	var (
		workers = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		asCSV   = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		telem   = fs.String("telemetry", "", "write the metrics registry as JSON to this file at exit (- for stdout)")
		asPlot  = fs.Bool("plot", false, "render figures 4-6 as ASCII charts too")
		quiet   = fs.Bool("quiet", false, "suppress progress output")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	fs.Parse(args)

	// Check before the profilers start: an exit on a bad flag must not
	// leave a started-but-unflushed (truncated) CPU profile behind.
	fig, params, linkOpts, err := c.resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdsweep: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sdsweep: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sdsweep: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "sdsweep: -memprofile: %v\n", err)
			}
		}()
	}

	if *telem != "" {
		experiment.SetTelemetry(obs.NewRegistry())
	}

	o := &output{params: params, opts: linkOpts, workers: *workers, stdout: stdout, csv: *asCSV, plot: *asPlot,
		progress: func(done, total int) {
			if *quiet {
				return
			}
			if done%100 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}}
	if fig.main {
		o.main = experiment.Sweep(experiment.SweepConfig{
			Params: params, Workers: *workers, Progress: o.progress, Opts: linkOpts,
		})
	}
	if fig.render != nil {
		fig.render(o)
	} else {
		for _, f := range figures {
			if f.inAll {
				f.render(o)
			}
		}
	}

	if *telem != "" {
		if err := experiment.Telemetry().WriteJSONFile(*telem, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "sdsweep: -telemetry: %v\n", err)
			return 1
		}
	}
	return 0
}

// resolve checks the command line and turns it into the figure, the
// sweep's parameters and the link options through the spec's Validate,
// Params and Options. Each error is one line, up front: never a panic
// mid-run, nor silence (Params would turn -runs 0 into the paper's 30).
func (c *config) resolve() (fig figure, p experiment.Params, o experiment.Options, err error) {
	i := slices.IndexFunc(figures, func(f figure) bool { return f.name == c.figure })
	if i < 0 {
		return fig, p, o, fmt.Errorf("unknown figure %q", c.figure)
	}
	fig = figures[i]
	if c.runs < 1 {
		return fig, p, o, fmt.Errorf("-runs must be at least 1, got %d", c.runs)
	}
	if c.scenario != "" {
		spec, _, err := hunt.Load(c.scenario)
		if err != nil {
			return fig, p, o, err
		}
		if err := c.design.SetSpec(spec); err != nil {
			return fig, p, o, err
		}
	}
	spec := &c.design.Spec
	if err := spec.Validate(); err != nil {
		return fig, p, o, err
	}
	for _, name := range fig.fixes {
		if f := fixable[name]; f.set(spec) {
			return fig, p, o, fmt.Errorf("-figure %s fixes its own %s; drop %s", fig.name, f.what, f.drop)
		}
	}
	o = spec.Options()
	// The spec fixes the design; the sweep's own axes — the λ grid, the
	// run count and the base seed — stay flags.
	p = spec.Params()
	for _, sys := range experiment.Systems() {
		if err := p.CheckOutages(sys); err != nil {
			return fig, p, o, err
		}
	}
	p.Lambdas = experiment.DefaultLambdas()
	p.Runs, p.BaseSeed = c.runs, spec.Seed
	return fig, p, o, nil
}
