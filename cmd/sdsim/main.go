// Command sdsim runs a single service discovery scenario and prints the
// outcome, optionally with the paper-style event log of §6.2 and a
// JSONL stream of every trace record (the flight recorder's record).
//
// Usage:
//
//	sdsim -system upnp -lambda 0.15 -seed 7 -log
//	sdsim -system frodo2p -lambda 0.15 -seed 7 -log -verbose
//	sdsim -system jini1 -trace run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() { os.Exit(sdsim(os.Args[1:], os.Stdout)) }

// sdsim runs one command line, writing the report to stdout, and
// returns the exit status.
func sdsim(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	design := experiment.Flags{System: experiment.Frodo2P, Spec: experiment.ScenarioSpec{Seed: 1, Lambda: 0.15}}
	design.Register(fs, "system", "lambda", "seed", "loss")
	var (
		showLog   = fs.Bool("log", false, "print the event log")
		verbose   = fs.Bool("verbose", false, "include every frame in the event log")
		traceFile = fs.String("trace", "", "write a structured JSONL trace to this file")
	)
	fs.Parse(args)

	if err := design.Spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	spec := design.Spec.RunSpec(design.System)

	var trace io.WriteCloser
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		trace = f
	}
	res, log, err := run(spec, *verbose, trace)
	if trace != nil {
		if cerr := trace.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if trace != nil {
		fmt.Fprintf(stdout, "trace written to %s\n", *traceFile)
	}
	if *showLog {
		for _, line := range log {
			fmt.Fprintln(stdout, line)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "%s at λ=%.2f (seed %d)\n", spec.System, spec.Lambda, spec.Seed)
	fmt.Fprintf(stdout, "  service changed at %.0fs, deadline %.0fs\n", res.ChangeAt.Sec(), res.Deadline.Sec())
	reached := 0
	for _, u := range res.Users {
		if u.Reached {
			reached++
			fmt.Fprintf(stdout, "  user %d consistent at %.3fs\n", u.User, u.At.Sec())
		} else {
			fmt.Fprintf(stdout, "  user %d NEVER regained consistency\n", u.User)
		}
	}
	fmt.Fprintf(stdout, "  effectiveness: %d/%d users\n", reached, len(res.Users))
	fmt.Fprintf(stdout, "  update effort y = %d discovery messages (transport frames in run: %d)\n",
		res.Effort, res.TotalTransport)
	return 0
}

// run executes one scenario with the §6.2 event log and, when trace is
// set, a JSONL stream of every frame and interface transition tee'd
// alongside it.
func run(spec experiment.RunSpec, verbose bool, trace io.Writer) (metrics.RunResult, []string, error) {
	if trace == nil {
		res, log := experiment.RunLogged(spec, verbose)
		return res, log, nil
	}
	tw := obs.NewTraceWriter(trace)
	spec.Attach = func(sc *experiment.Scenario) { sc.AddTracer(tw) }
	res, log := experiment.RunLogged(spec, verbose)
	return res, log, tw.Flush()
}
