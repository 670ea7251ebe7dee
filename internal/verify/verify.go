// Package verify checks the Configuration Update Principles (§4.1)
// systematically: "the User and/or Registry [must] always eventually
// regain consistency with the Manager after the service changes",
// provided connectivity is restored.
//
// The checker enumerates a grid of single-outage scenarios — which
// role fails, which interface(s), when, and for how long — always
// leaving ample time after recovery, runs each as a ScenarioSpec under
// the run-time oracle, and reports every scenario in which a User still
// holds a stale description at the end, and every one the oracle flags.
// The paper's companion work [24] proved FRODO satisfies the principles
// and [8] reports that first-generation systems do not; the checker
// reproduces both findings empirically (see the tests and EXPERIMENTS.md).
package verify

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// The grid's fixed timeline, shared by every cell.
const (
	// GridChangeAt is when the service changes (fixed so every
	// scenario's relation between outage and change is known).
	GridChangeAt sim.Time = 1000 * sim.Second
	// GridHorizon is the run length; it must leave GridRecoverySlack
	// after the latest outage end so "eventually" has room.
	GridHorizon sim.Duration = 12000 * sim.Second
	// GridRecoverySlack is the time every protocol is granted after
	// connectivity is restored before the checker calls a violation.
	// It must exceed the longest recovery chain (lease expiry + renewal
	// + announcement period).
	GridRecoverySlack sim.Duration = 4200 * sim.Second
	// gridSeed feeds the (otherwise deterministic) runs.
	gridSeed = 1
)

// GridConfig bounds the scenario enumeration.
type GridConfig struct {
	// Starts and Durations enumerate the outage windows.
	Starts    []sim.Time
	Durations []sim.Duration
	// Modes enumerates the outage modes: tx, rx or both.
	Modes []string
	// Targets enumerates the failed roles (experiment.Scenario.RoleNode);
	// a role the system lacks, such as a Registry on UPnP, is skipped.
	Targets []string
	// Harden runs every grid scenario with the protocol-hardening layer
	// on; false checks the paper-faithful baseline.
	Harden bool
}

// DefaultGrid covers outages across the change with all modes and
// targets: 3 starts x 4 durations x 3 modes x up-to-3 targets = up to
// 108 scenarios per system.
func DefaultGrid() GridConfig {
	return GridConfig{
		Starts:    []sim.Time{400 * sim.Second, 990 * sim.Second, 2000 * sim.Second},
		Durations: []sim.Duration{300 * sim.Second, 900 * sim.Second, 2000 * sim.Second, 4000 * sim.Second},
		Modes:     []string{"tx", "rx", "both"},
		Targets:   []string{"user:0", "manager", "registry:0"},
	}
}

// Violation is one scenario in which a User failed to regain consistency
// despite restored connectivity. Spec is the grid cell: saved as JSON,
// `sdverify -scenario` replays it.
type Violation struct {
	System experiment.System
	Spec   experiment.ScenarioSpec
	User   netsim.NodeID
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: user %d stale at horizon", cell(v.System, v.Spec), v.User)
}

// Breach is one scenario whose run the oracle flagged, whatever the
// Users' end state. Spec replays it like a Violation's.
type Breach struct {
	System experiment.System
	Spec   experiment.ScenarioSpec
	Report OracleReport
}

func (b Breach) String() string { return fmt.Sprintf("%s: %s", cell(b.System, b.Spec), b.Report) }

// cell names a grid cell by its outage and the change time.
func cell(sys experiment.System, spec experiment.ScenarioSpec) string {
	o := spec.Outages[0]
	return fmt.Sprintf("%s: %s %s down [%.0fs, %.0fs], change at %.0fs",
		sys, o.Node, o.Mode, o.StartSec, o.StartSec+o.DurationSec, spec.ChangeMinSec)
}

// Result aggregates a grid check.
type Result struct {
	System     experiment.System
	Scenarios  int
	Violations []Violation
	// Oracle sums the oracle's breaches over the grid per invariant;
	// Breaches lists the scenarios that carry any.
	Oracle   [numInvariants]int
	Breaches []Breach
}

// Holds reports whether the principles held across the whole grid: no
// User stale at the horizon. Oracle breaches are reported beside it.
func (r Result) Holds() bool { return len(r.Violations) == 0 }

// Check runs the grid for one system: one ScenarioSpec per cell, each
// audited by ObserveRun — the path `sdverify -scenario` and the chaos
// hunter take — and judged by whether every User holds the changed
// description at the horizon. The oracle's report of every cell is
// kept in Result.Oracle and Result.Breaches.
func Check(sys experiment.System, grid GridConfig) Result {
	res := Result{System: sys}
	for _, role := range grid.Targets {
		for _, start := range grid.Starts {
			for _, dur := range grid.Durations {
				// Leave the mandated slack after recovery.
				if start+dur+GridRecoverySlack > GridHorizon {
					continue
				}
				for _, mode := range grid.Modes {
					spec := experiment.ScenarioSpec{
						Seed:         gridSeed,
						DurationSec:  GridHorizon.Sec(),
						ChangeMinSec: GridChangeAt.Sec(),
						ChangeMaxSec: GridChangeAt.Sec(),
						Outages: []experiment.SpecOutage{{Node: role, Mode: mode,
							StartSec: start.Sec(), DurationSec: sim.Time(dur).Sec()}},
						Hardened: grid.Harden,
					}
					if err := spec.Validate(); err != nil {
						panic(fmt.Sprintf("verify: grid cell: %v", err))
					}
					if spec.Params().CheckOutages(sys) != nil {
						continue // the system lacks the role
					}
					res.Scenarios++
					rep, run := ObserveRun(spec.RunSpec(sys), DefaultOracleConfig(sys))
					if !rep.Clean() {
						res.Breaches = append(res.Breaches, Breach{System: sys, Spec: spec, Report: rep})
					}
					for i, n := range rep.ByInvariant {
						res.Oracle[i] += n
					}
					for _, u := range run.Users {
						if !u.Reached {
							res.Violations = append(res.Violations, Violation{System: sys, Spec: spec, User: u.User})
						}
					}
				}
			}
		}
	}
	return res
}
