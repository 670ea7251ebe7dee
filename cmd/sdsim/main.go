// Command sdsim runs a single service discovery scenario and prints the
// outcome, optionally with the paper-style event log of §6.2.
//
// Usage:
//
//	sdsim -system upnp -lambda 0.15 -seed 7 -log
//	sdsim -system frodo2p -lambda 0.15 -seed 7 -log -verbose
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
)

func main() {
	var (
		system    = flag.String("system", "frodo2p", "system to simulate: upnp|jini1|jini2|frodo3p|frodo2p")
		lambda    = flag.Float64("lambda", 0.15, "interface failure rate λ in [0,1]")
		seed      = flag.Int64("seed", 1, "random seed (same seed replays the identical run)")
		loss      = flag.Float64("loss", 0, "i.i.d. message loss probability (companion model [25])")
		showLog   = flag.Bool("log", false, "print the event log")
		verbose   = flag.Bool("verbose", false, "include every frame in the event log")
		traceFile = flag.String("trace", "", "write a structured JSONL trace to this file")
	)
	flag.Parse()

	sys, err := check(*system, *lambda, *loss)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec := experiment.RunSpec{
		System: sys,
		Lambda: *lambda,
		Seed:   *seed,
		Params: experiment.DefaultParams(),
		Opts:   experiment.Options{Loss: *loss},
	}

	var res metrics.RunResult
	var log []string
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err = runTraced(spec, f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *traceFile)
	} else {
		res, log = experiment.RunLogged(spec, *verbose)
	}
	if *showLog {
		for _, line := range log {
			fmt.Println(line)
		}
		fmt.Println()
	}

	fmt.Printf("%s at λ=%.2f (seed %d)\n", sys, *lambda, *seed)
	fmt.Printf("  service changed at %.0fs, deadline %.0fs\n", res.ChangeAt.Sec(), res.Deadline.Sec())
	reached := 0
	for _, u := range res.Users {
		if u.Reached {
			reached++
			fmt.Printf("  user %d consistent at %.3fs\n", u.User, u.At.Sec())
		} else {
			fmt.Printf("  user %d NEVER regained consistency\n", u.User)
		}
	}
	fmt.Printf("  effectiveness: %d/%d users\n", reached, len(res.Users))
	fmt.Printf("  update effort y = %d discovery messages (transport frames in run: %d)\n",
		res.Effort, res.TotalTransport)
}

// check resolves the system and rejects out-of-range flags up front, as
// one line, rather than as a panic from deep inside scenario
// construction.
func check(system string, lambda, loss float64) (experiment.System, error) {
	sys, err := experiment.ParseSystem(system)
	if err != nil {
		return sys, err
	}
	if lambda < 0 || lambda > 1 {
		return sys, fmt.Errorf("-lambda %v out of [0,1]", lambda)
	}
	if err := (experiment.Options{Loss: loss}).Validate(); err != nil {
		return sys, fmt.Errorf("-loss: %w", err)
	}
	return sys, nil
}

// runTraced executes one scenario while streaming a structured JSONL
// trace of every frame and interface transition to w.
func runTraced(spec experiment.RunSpec, w io.Writer) (metrics.RunResult, error) {
	var tw *trace.Writer
	spec.MakeTracer = func(*netsim.Network) netsim.Tracer {
		tw = trace.NewWriter(w)
		return tw
	}
	res := experiment.Run(spec)
	return res, tw.Flush()
}
