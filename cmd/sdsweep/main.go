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
//
// Adversarial network knobs (apply to figures 4-6 and scale):
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

	"repro/internal/discovery"
	"repro/internal/experiment"
	"repro/internal/frodo"
	"repro/internal/jini"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/upnp"
	"repro/internal/verify"
)

// config is the part of the command line that fixes what runs; design
// checks it and resolves it into the sweep's parameters.
type config struct {
	figure, scenario, delayDist, partition string

	runs   int
	seed   int64
	harden bool
	topo   experiment.Topology

	churn, absence, arrivals, burstLoss, burstLen, delaySigma, delayAlpha float64

	set map[string]bool // the flags given on the command line
}

func main() {
	var c config
	flag.StringVar(&c.figure, "figure", "all", "figure or table to regenerate: 4|5|6|7|table2|table5|loss|polling|scale|adversarial|hardening|all")
	flag.IntVar(&c.runs, "runs", 30, "runs per (system, λ) point (X in the paper)")
	flag.Int64Var(&c.seed, "seed", 1, "base seed for the whole sweep")
	var (
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		asCSV   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		telem   = flag.String("telemetry", "", "meter every run into one registry and write it as JSON to this file at exit (- for stdout)")
		asPlot  = flag.Bool("plot", false, "render figures 4-6 as ASCII charts too")
		quiet   = flag.Bool("quiet", false, "suppress progress output")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.StringVar(&c.scenario, "scenario", "", "sweep over this scenario spec JSON as the base design (strictly validated; its λ is replaced by the sweep grid)")

	flag.IntVar(&c.topo.Users, "users", 0, "number of Users N (0 = the paper's 5)")
	flag.IntVar(&c.topo.Managers, "managers", 0, "Manager nodes; extras host background services (0 = 1)")
	flag.IntVar(&c.topo.Registries, "registries", 0, "Registry nodes (0 = the system's Table 4 count)")
	flag.IntVar(&c.topo.Services, "services", 0, "distinct background service types (0 = one per extra Manager)")
	flag.Float64Var(&c.churn, "churn", 0, "expected departures per User over the run (Poisson; 0 = no churn)")
	flag.Float64Var(&c.absence, "absence", 0, "mean absence before rejoining, seconds (0 = departures are permanent)")
	flag.Float64Var(&c.arrivals, "arrivals", 0, "expected fresh User arrivals over the run (Poisson)")

	flag.Float64Var(&c.burstLoss, "burst-loss", 0, "Gilbert–Elliott burst loss at this average rate (0 = off)")
	flag.Float64Var(&c.burstLen, "burst-len", 8, "mean burst length in frames for -burst-loss")
	flag.StringVar(&c.delayDist, "delay-dist", "uniform", "one-way delay distribution: uniform|lognormal|pareto")
	flag.Float64Var(&c.delaySigma, "delay-sigma", 0, "lognormal shape for -delay-dist lognormal (0 = 1.0)")
	flag.Float64Var(&c.delayAlpha, "delay-alpha", 0, "Pareto tail exponent for -delay-dist pareto (0 = 1.5)")
	flag.StringVar(&c.partition, "partition", "", "bisect the population: start:duration in virtual seconds, e.g. 3000:4000")

	flag.BoolVar(&c.harden, "harden", false, "enable the full protocol-hardening layer for every run")
	flag.Parse()
	c.set = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { c.set[f.Name] = true })

	// Check before the profilers start: an os.Exit on a bad flag must
	// not leave a started-but-unflushed (truncated) CPU profile behind.
	params, linkOpts, err := c.design()
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
		// The link-conditioning flags apply to the main sweep, so figures
		// 4–6 can be regenerated under adversarial networks directly.
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
		with, without := experiment.Figure7Sweep(params, *workers, progress)
		emit(experiment.Figure7(with, without))
	case "table2":
		emit(experiment.Table2(params))
	case "table5":
		emit(experiment.Table5(main))
	case "loss":
		emit(lossSweep(params, *workers, progress))
	case "polling":
		emit(pollingSweep(params, *workers, progress))
	case "scale":
		emit(scaleSweep(params, linkOpts, *workers, progress))
	case "adversarial":
		emit(experiment.FigureAdversarial(params, *workers, progress))
	case "hardening":
		emit(verify.FigureHardening(params, c.runs, *workers, progress))
	case "all":
		emit(experiment.Table2(params))
		emit(experiment.Figure4(main))
		chart(experiment.MetricEffectiveness)
		emit(experiment.Figure5(main))
		chart(experiment.MetricResponsiveness)
		emit(experiment.Figure6(main))
		chart(experiment.MetricDegradation)
		emit(experiment.Table5(main))
		with, without := experiment.Figure7Sweep(params, *workers, progress)
		emit(experiment.Figure7(with, without))
	default:
		// Unreachable: design rejected unknown figures before the
		// profilers started. Panic (not os.Exit) so that if the two lists
		// ever diverge, the deferred profile teardown still runs.
		panic(fmt.Sprintf("figure %q passed validation but has no dispatch case", c.figure))
	}

	if *telem != "" {
		if err := dumpTelemetry(experiment.Telemetry(), *telem); err != nil {
			fmt.Fprintf(os.Stderr, "sdsweep: -telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

// design checks the command line and resolves it into the sweep's
// parameters and link options. Each error is one line: a friendly
// message up front, not a panic from deep inside scenario construction
// (nor silence: normalized() would paper a negative -users over with
// the default 5, and Params would turn -runs 0 into the paper's 30).
func (c config) design() (p experiment.Params, o experiment.Options, err error) {
	switch c.figure {
	case "4", "5", "6", "7", "table2", "table5", "loss", "polling", "scale", "adversarial", "hardening", "all":
	default:
		return p, o, fmt.Errorf("unknown figure %q", c.figure)
	}
	if c.harden && c.figure == "hardening" {
		return p, o, fmt.Errorf("-figure hardening already runs both modes; drop -harden")
	}
	if c.runs < 1 {
		return p, o, fmt.Errorf("-runs must be at least 1, got %d", c.runs)
	}

	p = experiment.DefaultParams()
	if c.scenario != "" {
		// A scenario spec fixes the same dimensions the ad-hoc flags do;
		// mixing the two would make the effective design ambiguous.
		for _, name := range []string{"users", "managers", "registries", "services",
			"churn", "absence", "arrivals", "burst-loss", "burst-len", "delay-dist",
			"delay-sigma", "delay-alpha", "partition"} {
			if c.set[name] {
				return p, o, fmt.Errorf("-scenario already fixes the design; drop -%s or edit the spec", name)
			}
		}
		// The shared spec codec: strict decoding, field-path validation.
		// The spec supplies every design dimension except the sweep's own
		// axes — the λ grid, the run count and the base seed stay flags.
		spec, err := experiment.LoadSpec(c.scenario)
		if err != nil {
			return p, o, err
		}
		p = spec.Params()
		p.Lambdas = experiment.DefaultLambdas()
		o = spec.Options()
	} else {
		if err := c.topo.Validate(); err != nil {
			return p, o, err
		}
		if c.churn < 0 || c.absence < 0 || c.arrivals < 0 {
			return p, o, fmt.Errorf("-churn, -absence and -arrivals must not be negative")
		}
		if c.burstLoss > 0 {
			if c.burstLoss >= 1 || c.burstLen < 1 {
				return p, o, fmt.Errorf("-burst-loss needs a rate in (0,1) and -burst-len ≥ 1")
			}
			if c.burstLoss/(1-c.burstLoss) > c.burstLen {
				return p, o, fmt.Errorf("-burst-loss %v is unreachable with -burst-len %v: needs ≥ %.3f",
					c.burstLoss, c.burstLen, c.burstLoss/(1-c.burstLoss))
			}
			o.Link.Burst = netsim.BurstForAverage(c.burstLoss, c.burstLen)
		}
		dist, err := netsim.ParseDelayDist(c.delayDist)
		if err != nil {
			return p, o, err
		}
		o.Link.Delay = netsim.DelayConfig{Dist: dist, Sigma: c.delaySigma, Alpha: c.delayAlpha}
		if c.partition != "" {
			var startSec, durSec float64
			if _, err := fmt.Sscanf(c.partition, "%f:%f", &startSec, &durSec); err != nil || durSec <= 0 {
				return p, o, fmt.Errorf("-partition wants start:duration in seconds, got %q", c.partition)
			}
			p.Partitions = []netsim.Partition{{
				Start:    sim.Time(startSec * float64(sim.Second)),
				Duration: sim.Duration(durSec * float64(sim.Second)),
				Bisect:   true,
			}}
		}
		p.Topology = c.topo
		p.Churn = experiment.Churn{
			Departures:  c.churn,
			MeanAbsence: sim.Duration(c.absence * float64(sim.Second)),
			Arrivals:    c.arrivals,
		}
	}
	p.Runs = c.runs
	p.BaseSeed = c.seed
	if c.harden {
		p.Hardening = discovery.HardenAll()
	}
	return p, o, nil
}

// dumpTelemetry writes the process registry as indented JSON to path,
// or to stdout for "-".
func dumpTelemetry(reg *obs.Registry, path string) error {
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pollingSweep is the CM2 extension experiment: notification-only versus
// notification-plus-persistent-polling, quantifying the §4.2 trade-off
// (polling is the more effective method if persistent, but slower and
// redundant for rarely-changing services).
func pollingSweep(params experiment.Params, workers int, progress func(int, int)) experiment.Table {
	params.Lambdas = []float64{0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90}
	base := experiment.Sweep(experiment.SweepConfig{Params: params, Workers: workers, Progress: progress})
	polled := experiment.Sweep(experiment.SweepConfig{Params: params, Workers: workers, Progress: progress,
		Opts: experiment.Options{
			UPnP:  func(c *upnp.Config) { c.PollPeriod = 600 * sim.Second },
			Jini:  func(c *jini.Config) { c.PollPeriod = 600 * sim.Second },
			Frodo: func(c *frodo.Config) { c.PollPeriod = 600 * sim.Second },
		}})
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
// drop probability.
func lossSweep(params experiment.Params, workers int, progress func(int, int)) experiment.Table {
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
				Opts:     experiment.Options{Loss: l},
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
