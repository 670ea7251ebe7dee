// Command sdverify checks the Configuration Update Principles (§4.1)
// for every system over the single-outage scenario grid: whenever
// connectivity is restored with time to spare, every User must
// eventually regain consistency. It reproduces the paper's guarantee
// claims: FRODO holds the principles ([24]); first-generation systems do
// not ([8]).
//
// With -scenario it instead audits one declarative scenario through
// the run-time consistency oracle: the file is either a bare
// ScenarioSpec (audited on all five systems) or a chaos-hunter fixture
// (internal/hunt/testdata — replayed against its recorded expectation),
// so a hunted-and-minimized violation can be fed straight back through
// the standalone checker.
//
// Usage:
//
//	sdverify                          # summary table
//	sdverify -violations              # also list every violating scenario
//	sdverify -harden                  # the grid with the hardening layer on
//	sdverify -scenario spec.json      # oracle-audit one scenario, all systems
//	sdverify -scenario fixture.json   # replay one hunted fixture
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/hunt"
	"repro/internal/obs"
	"repro/internal/verify"
)

func main() {
	var design experiment.Flags
	design.Register(flag.CommandLine, "harden")
	listViolations := flag.Bool("violations", false, "list every violating scenario")
	scenario := flag.String("scenario", "", "run this scenario spec or hunted fixture (strictly validated) in place of the default design")
	flag.Parse()

	if *scenario != "" {
		os.Exit(auditScenario(&design, *scenario, *listViolations))
	}

	grid := verify.DefaultGrid()
	grid.Harden = design.Spec.Hardened
	fmt.Println("Configuration Update Principles — single-outage scenario grid")
	fmt.Printf("(change at %.0fs, horizon %.0fs, %.0fs recovery slack)\n\n",
		grid.ChangeAt.Sec(), float64(grid.Horizon)/1e9, float64(grid.RecoverySlack)/1e9)
	fmt.Printf("%-34s  %-10s  %-10s  %s\n", "system", "scenarios", "violations", "verdict")

	for _, sys := range experiment.Systems() {
		res := verify.Check(sys, grid)
		verdict := "HOLDS"
		if !res.Holds() {
			verdict = "VIOLATED"
		}
		fmt.Printf("%-34s  %-10d  %-10d  %s\n", sys, res.Scenarios, len(res.Violations), verdict)
		if *listViolations {
			for _, v := range res.Violations {
				fmt.Printf("    %v\n", v)
			}
		}
	}
	fmt.Println()
	fmt.Println("The paper: FRODO \"provides guarantees\" [24]; \"first-generation service")
	fmt.Println("discovery systems do not provide guarantees of correct behavior\" [8].")
}

// auditScenario runs one spec (or hunted fixture) through the oracle.
// Exit status mirrors the grid checker: 0 all clean, 1 violations.
func auditScenario(design *experiment.Flags, path string, listViolations bool) int {
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
			fmt.Printf("FAIL  %s\n", err)
			printViolations(rep, listViolations)
			dumpFlight(flight)
			return 1
		}
		fmt.Printf("ok    %s on %s: expectation met (%s)\n", path, fx.System, rep)
		if rep.Total > 0 && listViolations {
			// Dirty by expectation (a hunted fixture): surface the tail on
			// request even though the replay verdict is a pass.
			printViolations(rep, true)
			dumpFlight(flight)
		}
		return 0
	}

	if err := design.SetSpec(spec); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	spec = &design.Spec
	fmt.Printf("Run-time consistency oracle — scenario %s (seed %d)\n\n", path, spec.Seed)
	fmt.Printf("%-34s  %s\n", "system", "oracle report")
	status := 0
	for _, sys := range experiment.Systems() {
		rep, _ := verify.ObserveRun(spec.RunSpec(sys), verify.DefaultOracleConfig(sys))
		fmt.Printf("%-34s  %s\n", sys, rep)
		printViolations(rep, listViolations)
		if rep.Total > 0 {
			status = 1
		}
	}
	return status
}

// dumpFlight writes the flight-recorder snapshot to stderr.
func dumpFlight(snap obs.FlightSnapshot) {
	fmt.Fprintln(os.Stderr, "flight-recorder state at first violation:")
	if err := obs.WriteFlightJSON(os.Stderr, []obs.FlightSnapshot{snap}); err != nil {
		fmt.Fprintf(os.Stderr, "flight dump: %v\n", err)
	}
}

func printViolations(rep verify.OracleReport, list bool) {
	if !list {
		return
	}
	for _, v := range rep.Violations {
		fmt.Printf("    %v\n", v)
	}
}
