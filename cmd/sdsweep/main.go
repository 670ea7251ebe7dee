// Command sdsweep regenerates the paper's figures: it runs the full
// interface-failure sweep (λ = 0.00 … 0.90, X runs per point, five
// systems) on a parallel worker pool and prints the requested figure's
// data series as an aligned table or CSV.
//
// Usage:
//
//	sdsweep -figure 4            # Average Update Effectiveness (Fig. 4)
//	sdsweep -figure 5            # Median Update Responsiveness (Fig. 5)
//	sdsweep -figure 6            # Efficiency Degradation (Fig. 6)
//	sdsweep -figure 7            # PR1 ablation on FRODO (Fig. 7)
//	sdsweep -figure all -runs 30 # everything, paper-sized
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

	"repro/sdsim"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "figure to regenerate: 4|5|6|7|loss|polling|scale|hardening|all")
		runs    = flag.Int("runs", 30, "runs per (system, λ) point (X in the paper)")
		seed    = flag.Int64("seed", 1, "base seed for the whole sweep")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		asCSV   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		telem   = flag.String("telemetry", "", "meter every run into one registry and write it as JSON to this file at exit (- for stdout)")
		asPlot  = flag.Bool("plot", false, "render figures 4-6 as ASCII charts too")
		quiet   = flag.Bool("quiet", false, "suppress progress output")

		scenario = flag.String("scenario", "", "sweep over this scenario spec JSON as the base design (strictly validated; its λ is replaced by the sweep grid)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")

		users      = flag.Int("users", 0, "number of Users N (0 = the paper's 5)")
		managers   = flag.Int("managers", 0, "Manager nodes; extras host background services (0 = 1)")
		registries = flag.Int("registries", 0, "Registry nodes (0 = the system's Table 4 count)")
		services   = flag.Int("services", 0, "distinct background service types (0 = one per extra Manager)")
		churn      = flag.Float64("churn", 0, "expected departures per User over the run (Poisson; 0 = no churn)")
		absence    = flag.Float64("absence", 0, "mean absence before rejoining, seconds (0 = departures are permanent)")
		arrivals   = flag.Float64("arrivals", 0, "expected fresh User arrivals over the run (Poisson)")

		burstLoss  = flag.Float64("burst-loss", 0, "Gilbert–Elliott burst loss at this average rate (0 = off)")
		burstLen   = flag.Float64("burst-len", 8, "mean burst length in frames for -burst-loss")
		delayDist  = flag.String("delay-dist", "uniform", "one-way delay distribution: uniform|lognormal|pareto")
		delaySigma = flag.Float64("delay-sigma", 0, "lognormal shape for -delay-dist lognormal (0 = 1.0)")
		delayAlpha = flag.Float64("delay-alpha", 0, "Pareto tail exponent for -delay-dist pareto (0 = 1.5)")
		partition  = flag.String("partition", "", "bisect the population: start:duration in virtual seconds, e.g. 3000:4000")

		hardenOn = flag.Bool("harden", false, "enable the full protocol-hardening layer for every run")
	)
	flag.Parse()

	// Validate before the profilers start: an os.Exit on a bad flag must
	// not leave a started-but-unflushed (truncated) CPU profile behind.
	switch *figure {
	case "4", "5", "6", "7", "loss", "polling", "scale", "adversarial", "hardening", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
		os.Exit(2)
	}
	if *hardenOn && *figure == "hardening" {
		fmt.Fprintf(os.Stderr, "-figure hardening already runs both modes; drop -harden\n")
		os.Exit(2)
	}

	// A scenario spec fixes the same dimensions the ad-hoc flags do;
	// mixing the two would make the effective design ambiguous.
	if *scenario != "" {
		specOwned := map[string]bool{
			"users": true, "managers": true, "registries": true, "services": true,
			"churn": true, "absence": true, "arrivals": true,
			"burst-loss": true, "burst-len": true, "delay-dist": true,
			"delay-sigma": true, "delay-alpha": true, "partition": true,
		}
		conflict := ""
		flag.Visit(func(f *flag.Flag) {
			if specOwned[f.Name] {
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(os.Stderr, "-scenario already fixes the design; drop -%s or edit the spec\n", conflict)
			os.Exit(2)
		}
	}

	// Topology flags too: a friendly error up front, not a panic from
	// deep inside scenario construction (and not silently: normalized()
	// would otherwise paper a negative -users over with the default 5).
	topoFlags := sdsim.Topology{
		Users:      *users,
		Managers:   *managers,
		Registries: *registries,
		Services:   *services,
	}
	if err := topoFlags.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	if *churn < 0 || *absence < 0 || *arrivals < 0 {
		fmt.Fprintf(os.Stderr, "-churn, -absence and -arrivals must not be negative\n")
		os.Exit(2)
	}

	var link sdsim.LinkConfig
	if *burstLoss > 0 {
		if *burstLoss >= 1 || *burstLen < 1 {
			fmt.Fprintf(os.Stderr, "-burst-loss needs a rate in (0,1) and -burst-len ≥ 1\n")
			os.Exit(2)
		}
		if *burstLoss/(1-*burstLoss) > *burstLen {
			fmt.Fprintf(os.Stderr, "-burst-loss %v is unreachable with -burst-len %v: needs ≥ %.3f\n",
				*burstLoss, *burstLen, *burstLoss/(1-*burstLoss))
			os.Exit(2)
		}
		link.Burst = sdsim.BurstForAverage(*burstLoss, *burstLen)
	}
	dist, err := sdsim.ParseDelayDist(*delayDist)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	link.Delay = sdsim.DelayConfig{Dist: dist, Sigma: *delaySigma, Alpha: *delayAlpha}
	linkOpts := sdsim.Options{Link: link}

	var partitions []sdsim.Partition
	if *partition != "" {
		var startSec, durSec float64
		if _, err := fmt.Sscanf(*partition, "%f:%f", &startSec, &durSec); err != nil || durSec <= 0 {
			fmt.Fprintf(os.Stderr, "-partition wants start:duration in seconds, got %q\n", *partition)
			os.Exit(2)
		}
		partitions = append(partitions, sdsim.Partition{
			Start:    sdsim.Time(startSec * float64(sdsim.Second)),
			Duration: sdsim.Duration(durSec * float64(sdsim.Second)),
			Bisect:   true,
		})
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
		sdsim.SetTelemetry(sdsim.NewRegistry())
	}

	params := sdsim.DefaultParams()
	params.Runs = *runs
	params.BaseSeed = *seed
	params.Topology = topoFlags
	params.Churn = sdsim.Churn{
		Departures:  *churn,
		MeanAbsence: sdsim.Duration(*absence * float64(sdsim.Second)),
		Arrivals:    *arrivals,
	}
	params.Partitions = partitions
	if *hardenOn {
		params.Hardening = sdsim.HardenAll()
	}

	if *scenario != "" {
		// The shared spec codec: strict decoding, field-path validation.
		// The spec supplies every design dimension except the sweep's own
		// axes — the λ grid, the run count and the base seed stay flags.
		spec, err := sdsim.LoadSpec(*scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		params = spec.Params()
		params.Runs = *runs
		params.BaseSeed = *seed
		params.Lambdas = sdsim.DefaultLambdas()
		linkOpts = spec.Options()
		if *hardenOn {
			params.Hardening = sdsim.HardenAll()
		}
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

	emit := func(t sdsim.Table) {
		if *asCSV {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	needMain := map[string]bool{"4": true, "5": true, "6": true, "all": true}
	var main sdsim.SweepResult
	if needMain[*figure] {
		// The link-conditioning flags apply to the main sweep, so figures
		// 4–6 can be regenerated under adversarial networks directly.
		main = sdsim.Sweep(sdsim.SweepConfig{
			Params: params, Workers: *workers, Progress: progress, Opts: linkOpts,
		})
	}

	chart := func(m sdsim.Metric) {
		if *asPlot {
			fmt.Println(sdsim.Chart(main, m))
		}
	}

	switch *figure {
	case "4":
		emit(sdsim.Figure4(main))
		chart(sdsim.MetricEffectiveness)
	case "5":
		emit(sdsim.Figure5(main))
		chart(sdsim.MetricResponsiveness)
	case "6":
		emit(sdsim.Figure6(main))
		chart(sdsim.MetricDegradation)
	case "7":
		with, without := sdsim.Figure7Sweep(params, *workers, progress)
		emit(sdsim.Figure7(with, without))
	case "loss":
		emit(lossSweep(params, *workers, progress))
	case "polling":
		emit(pollingSweep(params, *workers, progress))
	case "scale":
		emit(scaleSweep(params, linkOpts, *workers, progress))
	case "adversarial":
		emit(sdsim.FigureAdversarial(params, *workers, progress))
	case "hardening":
		emit(sdsim.FigureHardening(params, *runs, *workers, progress))
	case "all":
		emit(sdsim.Figure4(main))
		chart(sdsim.MetricEffectiveness)
		emit(sdsim.Figure5(main))
		chart(sdsim.MetricResponsiveness)
		emit(sdsim.Figure6(main))
		chart(sdsim.MetricDegradation)
		emit(sdsim.Table5(main))
		with, without := sdsim.Figure7Sweep(params, *workers, progress)
		emit(sdsim.Figure7(with, without))
	default:
		// Unreachable: the up-front validation rejected unknown figures
		// before the profilers started. Panic (not os.Exit) so that if the
		// two lists ever diverge, the deferred profile teardown still runs.
		panic(fmt.Sprintf("figure %q passed validation but has no dispatch case", *figure))
	}

	if *telem != "" {
		if err := dumpTelemetry(sdsim.Telemetry(), *telem); err != nil {
			fmt.Fprintf(os.Stderr, "sdsweep: -telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

// dumpTelemetry writes the process registry as indented JSON to path,
// or to stdout for "-".
func dumpTelemetry(reg *sdsim.Registry, path string) error {
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
func pollingSweep(params sdsim.Params, workers int, progress func(int, int)) sdsim.Table {
	params.Lambdas = []float64{0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90}
	base := sdsim.Sweep(sdsim.SweepConfig{Params: params, Workers: workers, Progress: progress})
	polled := sdsim.Sweep(sdsim.SweepConfig{Params: params, Workers: workers, Progress: progress,
		Opts: sdsim.WithPolling(600 * sdsim.Second)})
	t := sdsim.Table{
		Title:  "Extension: CM1 (notification) vs CM1+CM2 (adding 600s persistent polling) — Update Effectiveness",
		Header: []string{"failure%"},
	}
	for _, sys := range sdsim.Systems() {
		t.Header = append(t.Header, sys.Short(), sys.Short()+"+poll")
	}
	for li, l := range params.Lambdas {
		row := []string{fmt.Sprintf("%.0f", l*100)}
		for _, sys := range sdsim.Systems() {
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
func scaleSweep(params sdsim.Params, opts sdsim.Options, workers int, progress func(int, int)) sdsim.Table {
	sizes := []int{5, 25, 100, 500, 1000}
	params.Lambdas = []float64{0, 0.30}
	t := sdsim.Table{
		Title:  "Extension: Update Effectiveness and zero-failure effort vs population size N",
		Header: []string{"system"},
	}
	for _, n := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("F@N=%d(0%%)", n), fmt.Sprintf("F@N=%d(30%%)", n), fmt.Sprintf("m'@N=%d", n))
	}
	for _, sys := range sdsim.Systems() {
		row := []string{sys.Short()}
		for _, n := range sizes {
			p := params
			p.Topology.Users = n
			res := sdsim.Sweep(sdsim.SweepConfig{
				Systems: []sdsim.System{sys}, Params: p, Workers: workers, Progress: progress,
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
func lossSweep(params sdsim.Params, workers int, progress func(int, int)) sdsim.Table {
	lambdas := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	t := sdsim.Table{
		Title:  "Extension: Average Update Effectiveness vs message loss (%) [25]",
		Header: []string{"loss%"},
	}
	curves := map[sdsim.System][]float64{}
	for _, sys := range sdsim.Systems() {
		t.Header = append(t.Header, sys.Short())
		for _, l := range lambdas {
			p := params
			p.Lambdas = []float64{0} // no interface failures
			res := sdsim.Sweep(sdsim.SweepConfig{
				Systems:  []sdsim.System{sys},
				Params:   p,
				Workers:  workers,
				Opts:     sdsim.Options{Loss: l},
				Progress: progress,
			})
			curves[sys] = append(curves[sys], res.Curves[sys].Points[0].Effectiveness)
		}
	}
	for i, l := range lambdas {
		row := []string{fmt.Sprintf("%.0f", l*100)}
		for _, sys := range sdsim.Systems() {
			row = append(row, fmt.Sprintf("%.3f", curves[sys][i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
