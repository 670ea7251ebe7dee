// Command sdverify checks the Configuration Update Principles (§4.1)
// for every system over the single-outage scenario grid: whenever
// connectivity is restored with time to spare, every User must
// eventually regain consistency. The grid is a list of ScenarioSpecs,
// one per cell, audited in parallel by verify.ObserveRun, the runner
// -scenario uses too. It reproduces the paper's guarantee claims: FRODO
// holds the principles ([24]); first-generation systems do not ([8]).
//
// With -scenario it instead audits one declarative scenario through
// the run-time consistency oracle: the file is either a bare
// ScenarioSpec (audited on every system that has the roles its outages
// name; the others are reported as not run) or a chaos-hunter fixture
// (internal/hunt/testdata — replayed against its recorded expectation),
// so a hunted-and-minimized violation can be fed straight back through
// the standalone checker.
//
// Usage:
//
//	sdverify                          # summary table
//	sdverify -violations              # also list every violating or oracle-flagged scenario and its spec
//	sdverify -harden                  # the grid with the hardening layer on
//	sdverify -scenario spec.json      # oracle-audit one scenario, all systems
//	sdverify -scenario fixture.json   # replay one hunted fixture
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/hunt"
	"repro/internal/obs"
	"repro/internal/verify"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run runs one command line, writing the report to stdout, and returns
// the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var design experiment.Flags
	design.Register(fs, "harden")
	listViolations := fs.Bool("violations", false, "list every violating scenario")
	scenario := fs.String("scenario", "", "run this scenario spec or hunted fixture (strictly validated) in place of the default design")
	fs.Parse(args)

	if *scenario != "" {
		return auditScenario(stdout, &design, *scenario, *listViolations)
	}

	grid := verify.Grid(design.Spec.Hardened)
	fmt.Fprintln(stdout, "Configuration Update Principles — single-outage scenario grid")
	fmt.Fprintf(stdout, "(change at %.0fs, horizon %.0fs, %.0fs recovery slack)\n\n",
		verify.GridChangeAt.Sec(), verify.GridHorizon.Sec(), verify.GridRecoverySlack.Sec())
	fmt.Fprintf(stdout, "%-34s  %-10s  %-10s  %-22s  %s\n", "system", "scenarios", "violations", "oracle", "verdict")

	for _, sys := range experiment.Systems() {
		res := verify.Check(sys, grid)
		verdict := "HOLDS"
		if !res.Holds() {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(stdout, "%-34s  %-10d  %-10d  %-22s  %s\n", sys, res.Scenarios, len(res.Violations), oracleCounts(res.Oracle[:]), verdict)
		if *listViolations {
			for _, v := range res.Violations {
				printReplay(stdout, v, v.Spec)
			}
			for _, b := range res.Breaches {
				printReplay(stdout, b, b.Spec)
			}
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, "The verdict judges stale Users at the horizon; the oracle column counts\nthe run-time invariant breaches of the same runs (-violations lists both).\n\n")
	fmt.Fprintln(stdout, "The paper: FRODO \"provides guarantees\" [24]; \"first-generation service")
	fmt.Fprintln(stdout, "discovery systems do not provide guarantees of correct behavior\" [8].")
	return 0
}

// auditScenario runs one spec (or hunted fixture) through the oracle.
// Exit status mirrors the grid checker: 0 all clean, 1 violations.
func auditScenario(stdout io.Writer, design *experiment.Flags, path string, listViolations bool) int {
	spec, fx, err := hunt.Load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}

	if fx != nil {
		if design.Spec.Hardened {
			// A fixture pins its own hardened flag — its expectation was
			// recorded for that mode and means nothing under another.
			fmt.Fprintf(os.Stderr, "%s is a fixture; it pins its own hardened flag, drop -harden\n", path)
			return 2
		}
		// Replay with a flight recorder attached: on a dirty or failing
		// replay its ring — frozen at the first violation — is the trace
		// tail a diagnosis starts from.
		rep, flight, err := hunt.Replay(fx)
		if err != nil {
			fmt.Fprintf(stdout, "FAIL  %s\n", err)
			printViolations(stdout, rep, listViolations)
			dumpFlight(flight)
			return 1
		}
		fmt.Fprintf(stdout, "ok    %s on %s: expectation met (%s)\n", path, fx.System, rep)
		if rep.Total > 0 && listViolations {
			// Dirty by expectation (a hunted fixture): surface the tail on
			// request even though the replay verdict is a pass.
			printViolations(stdout, rep, true)
			dumpFlight(flight)
		}
		return 0
	}

	if err := design.SetSpec(spec); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	spec = &design.Spec
	fmt.Fprintf(stdout, "Run-time consistency oracle — scenario %s (seed %d)\n\n", path, spec.Seed)
	fmt.Fprintf(stdout, "%-34s  %s\n", "system", "oracle report")
	status := 0
	for _, sys := range experiment.Systems() {
		if err := spec.Params().CheckOutages(sys); err != nil {
			fmt.Fprintf(stdout, "%-34s  not run: %v\n", sys, err)
			continue
		}
		rep, res := verify.ObserveRun(spec.RunSpec(sys), verify.DefaultOracleConfig(sys))
		// Stale Users are the grid's verdict: a grid cell's spec replays here.
		fmt.Fprintf(stdout, "%-34s  %s; %d User(s) stale at the horizon\n", sys, rep, res.Unreached())
		printViolations(stdout, rep, listViolations)
		if rep.Total > 0 {
			status = 1
		}
	}
	return status
}

// oracleCounts renders a grid's per-invariant oracle breaches: "0", or
// the nonzero invariants with their counts.
func oracleCounts(byInvariant []int) string {
	var parts []string
	for i, n := range byInvariant {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", verify.Invariant(i), n))
		}
	}
	if parts == nil {
		return "0"
	}
	return strings.Join(parts, ", ")
}

// printReplay lists one flagged grid cell with its spec as a replay line
// for -scenario.
func printReplay(stdout io.Writer, finding fmt.Stringer, spec experiment.ScenarioSpec) {
	data, _ := json.Marshal(spec) // plain data: cannot fail
	fmt.Fprintf(stdout, "    %v\n      replay: %s\n", finding, data)
}

// dumpFlight writes the flight-recorder snapshot to stderr.
func dumpFlight(snap obs.FlightSnapshot) {
	fmt.Fprintln(os.Stderr, "flight-recorder state at first violation:")
	if err := obs.WriteFlightJSON(os.Stderr, []obs.FlightSnapshot{snap}); err != nil {
		fmt.Fprintf(os.Stderr, "flight dump: %v\n", err)
	}
}

func printViolations(stdout io.Writer, rep verify.OracleReport, list bool) {
	if !list {
		return
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "    %v\n", v)
	}
}
