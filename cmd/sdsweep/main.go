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
//	sdsweep -figure all -runs 30 # every figure and table, paper-sized
//	sdsweep -figure loss         # extension: message-loss failure model
//	sdsweep -figure adversarial  # extension: burst vs i.i.d. loss at equal rate
//	sdsweep -figure hardening    # extension: baseline vs hardened under the hunted fault mix
//	sdsweep -figure 4 -harden    # any figure with the protocol-hardening layer on
//	sdsweep -scenario f.json     # a spec or hunted fixture as the design; λ stays the sweep grid
//
// Adversarial network knobs (apply to every figure but adversarial, loss
// and hardening, which fix their own link model and refuse them):
//
//	sdsweep -figure 4 -burst-loss 0.2 -burst-len 8   # Gilbert–Elliott loss
//	sdsweep -figure 4 -delay-dist pareto             # heavy-tailed delay
//	sdsweep -figure 4 -partition 3000:4000           # transient bisection
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiment"
	"repro/internal/frodo"
	"repro/internal/hunt"
	"repro/internal/jini"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/upnp"
	"repro/internal/verify"
)

// config is the part of the command line that fixes what runs; resolve
// checks it and turns it into the sweep's parameters.
type config struct {
	figure, scenario string
	runs             int
	design           experiment.Flags
}

func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.figure, "figure", "all", "figure or table to regenerate: 4|5|6|7|table2|table5|loss|polling|scale|adversarial|hardening|all")
	fs.IntVar(&c.runs, "runs", 30, "runs per (system, λ) point (X in the paper)")
	fs.StringVar(&c.scenario, "scenario", "", "run this scenario spec or hunted fixture (strictly validated) in place of the default design")
	c.design.Spec = experiment.ScenarioSpec{Seed: 1, Link: experiment.SpecLink{BurstLen: 8, DelayDist: "uniform"}}
	c.design.Register(fs, "seed", "users", "managers", "registries", "services", "churn", "absence", "arrivals",
		"burst-loss", "burst-len", "delay-dist", "delay-sigma", "delay-alpha", "partition", "harden")
}

func main() {
	var c config
	c.register(flag.CommandLine)
	var (
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		asCSV   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		telem   = flag.String("telemetry", "", "write the metrics registry as JSON to this file at exit (- for stdout)")
		asPlot  = flag.Bool("plot", false, "render figures 4-6 as ASCII charts too")
		quiet   = flag.Bool("quiet", false, "suppress progress output")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	// Check before the profilers start: an os.Exit on a bad flag must
	// not leave a started-but-unflushed (truncated) CPU profile behind.
	params, linkOpts, err := c.resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdsweep: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sdsweep: -cpuprofile: %v\n", err)
			os.Exit(1)
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

	progress := func(done, total int) {
		if *quiet {
			return
		}
		if done%100 == 0 || done == total {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	emit := func(t experiment.Table) {
		if *asCSV {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	needMain := map[string]bool{"4": true, "5": true, "6": true, "table5": true, "all": true}
	var main experiment.SweepResult
	if needMain[c.figure] {
		main = experiment.Sweep(experiment.SweepConfig{
			Params: params, Workers: *workers, Progress: progress, Opts: linkOpts,
		})
	}

	chart := func(m experiment.Metric) {
		if *asPlot {
			fmt.Println(experiment.Chart(main, m))
		}
	}

	switch c.figure {
	case "4":
		emit(experiment.Figure4(main))
		chart(experiment.MetricEffectiveness)
	case "5":
		emit(experiment.Figure5(main))
		chart(experiment.MetricResponsiveness)
	case "6":
		emit(experiment.Figure6(main))
		chart(experiment.MetricDegradation)
	case "7":
		with, without := experiment.Figure7Sweep(params, linkOpts, *workers, progress)
		emit(experiment.Figure7(with, without))
	case "table2":
		emit(experiment.Table2(params, linkOpts))
	case "table5":
		emit(experiment.Table5(main))
	case "loss":
		emit(lossSweep(params, linkOpts, *workers, progress))
	case "polling":
		emit(pollingSweep(params, linkOpts, *workers, progress))
	case "scale":
		emit(scaleSweep(params, linkOpts, *workers, progress))
	case "adversarial":
		emit(experiment.FigureAdversarial(params, linkOpts, *workers, progress))
	case "hardening":
		emit(verify.FigureHardening(params, c.runs, *workers, progress))
	case "all":
		emit(experiment.Table2(params, linkOpts))
		emit(experiment.Figure4(main))
		chart(experiment.MetricEffectiveness)
		emit(experiment.Figure5(main))
		chart(experiment.MetricResponsiveness)
		emit(experiment.Figure6(main))
		chart(experiment.MetricDegradation)
		emit(experiment.Table5(main))
		with, without := experiment.Figure7Sweep(params, linkOpts, *workers, progress)
		emit(experiment.Figure7(with, without))
	default:
		// Unreachable: resolve rejected unknown figures before the
		// profilers started. Panic (not os.Exit) so that if the two lists
		// ever diverge, the deferred profile teardown still runs.
		panic(fmt.Sprintf("figure %q passed validation but has no dispatch case", c.figure))
	}

	if *telem != "" {
		if err := experiment.Telemetry().WriteJSONFile(*telem); err != nil {
			fmt.Fprintf(os.Stderr, "sdsweep: -telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

// resolve checks the command line and turns it into the sweep's
// parameters and link options through the spec's Validate, Params and
// Options. Each error is one line, up front: never a panic mid-run, nor
// silence (Params would turn -runs 0 into the paper's 30).
func (c *config) resolve() (p experiment.Params, o experiment.Options, err error) {
	switch c.figure {
	case "4", "5", "6", "7", "table2", "table5", "loss", "polling", "scale", "adversarial", "hardening", "all":
	default:
		return p, o, fmt.Errorf("unknown figure %q", c.figure)
	}
	if c.runs < 1 {
		return p, o, fmt.Errorf("-runs must be at least 1, got %d", c.runs)
	}
	if c.scenario != "" {
		spec, _, err := hunt.Load(c.scenario)
		if err != nil {
			return p, o, err
		}
		if err := c.design.SetSpec(spec); err != nil {
			return p, o, err
		}
	}
	spec := &c.design.Spec
	if err := spec.Validate(); err != nil {
		return p, o, err
	}
	if spec.Hardened && c.figure == "hardening" {
		// A hardened design would turn the baseline column hardened.
		return p, o, fmt.Errorf("-figure hardening already runs both modes; drop -harden or the spec's \"hardened\"")
	}
	o = spec.Options()
	switch c.figure {
	case "adversarial", "loss", "hardening":
		// These sweep their own link models: a link design would be dropped.
		if o.Loss != 0 || o.Link != (netsim.LinkConfig{}) {
			return p, o, fmt.Errorf("-figure %s fixes its own link model; drop the link flags or the spec's \"link\"", c.figure)
		}
	}
	// The spec fixes the design; the sweep's own axes — the λ grid, the
	// run count and the base seed — stay flags.
	p = spec.Params()
	for _, sys := range experiment.Systems() {
		if err := p.CheckOutages(sys); err != nil {
			return p, o, err
		}
	}
	p.Lambdas = experiment.DefaultLambdas()
	p.Runs, p.BaseSeed = c.runs, spec.Seed
	return p, o, nil
}

// pollingSweep is the CM2 extension experiment: notification-only versus
// notification-plus-persistent-polling, quantifying the §4.2 trade-off
// (polling is the more effective method if persistent, but slower and
// redundant for rarely-changing services).
func pollingSweep(params experiment.Params, opts experiment.Options, workers int, progress func(int, int)) experiment.Table {
	params.Lambdas = []float64{0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90}
	base := experiment.Sweep(experiment.SweepConfig{Params: params, Workers: workers, Progress: progress, Opts: opts})
	opts.UPnP = func(c *upnp.Config) { c.PollPeriod = 600 * sim.Second }
	opts.Jini = func(c *jini.Config) { c.PollPeriod = 600 * sim.Second }
	opts.Frodo = func(c *frodo.Config) { c.PollPeriod = 600 * sim.Second }
	polled := experiment.Sweep(experiment.SweepConfig{Params: params, Workers: workers, Progress: progress, Opts: opts})
	t := experiment.Table{
		Title:  "Extension: CM1 (notification) vs CM1+CM2 (adding 600s persistent polling) — Update Effectiveness",
		Header: []string{"failure%"},
	}
	for _, sys := range experiment.Systems() {
		t.Header = append(t.Header, sys.Short(), sys.Short()+"+poll")
	}
	for li, l := range params.Lambdas {
		row := []string{fmt.Sprintf("%.0f", l*100)}
		for _, sys := range experiment.Systems() {
			row = append(row,
				fmt.Sprintf("%.3f", base.Curves[sys].Points[li].Effectiveness),
				fmt.Sprintf("%.3f", polled.Curves[sys].Points[li].Effectiveness))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"polling repairs missed notifications (higher F) at the price of redundant traffic (lower G) and poll-grid latency")
	return t
}

// scaleSweep is the scale-out extension: one sweep per population size,
// holding the failure grid small, to chart how each system's Update
// Effectiveness and per-run effort respond to growing N. The -churn,
// -managers and -registries flags apply to every column, as do the
// link-conditioning flags via opts.
func scaleSweep(params experiment.Params, opts experiment.Options, workers int, progress func(int, int)) experiment.Table {
	sizes := []int{5, 25, 100, 500, 1000}
	params.Lambdas = []float64{0, 0.30}
	t := experiment.Table{
		Title:  "Extension: Update Effectiveness and zero-failure effort vs population size N",
		Header: []string{"system"},
	}
	for _, n := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("F@N=%d(0%%)", n), fmt.Sprintf("F@N=%d(30%%)", n), fmt.Sprintf("m'@N=%d", n))
	}
	for _, sys := range experiment.Systems() {
		row := []string{sys.Short()}
		for _, n := range sizes {
			p := params
			p.Topology.Users = n
			res := experiment.Sweep(experiment.SweepConfig{
				Systems: []experiment.System{sys}, Params: p, Workers: workers, Progress: progress,
				Opts: opts,
			})
			pts := res.Curves[sys].Points
			row = append(row,
				fmt.Sprintf("%.3f", pts[0].Effectiveness),
				fmt.Sprintf("%.3f", pts[1].Effectiveness),
				fmt.Sprintf("%d", res.MPrime[sys]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"streaming per-cell aggregation keeps sweep memory flat in N; combine with -churn/-managers/-registries for populated-network scenarios")
	return t
}

// lossSweep is the extension experiment: the message-loss failure model
// of the companion study [25], with λ reinterpreted as the per-frame
// drop probability. opts carries the design's hardening; its link model
// is empty (resolve rejects one for this figure).
func lossSweep(params experiment.Params, opts experiment.Options, workers int, progress func(int, int)) experiment.Table {
	lambdas := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	t := experiment.Table{
		Title:  "Extension: Average Update Effectiveness vs message loss (%) [25]",
		Header: []string{"loss%"},
	}
	curves := map[experiment.System][]float64{}
	for _, sys := range experiment.Systems() {
		t.Header = append(t.Header, sys.Short())
		for _, l := range lambdas {
			p := params
			p.Lambdas = []float64{0} // no interface failures
			res := experiment.Sweep(experiment.SweepConfig{
				Systems:  []experiment.System{sys},
				Params:   p,
				Workers:  workers,
				Opts:     experiment.Options{Loss: l, Hardened: opts.Hardened},
				Progress: progress,
			})
			curves[sys] = append(curves[sys], res.Curves[sys].Points[0].Effectiveness)
		}
	}
	for i, l := range lambdas {
		row := []string{fmt.Sprintf("%.0f", l*100)}
		for _, sys := range experiment.Systems() {
			row = append(row, fmt.Sprintf("%.3f", curves[sys][i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
