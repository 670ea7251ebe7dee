// Package verify checks the Configuration Update Principles (§4.1)
// systematically: "the User and/or Registry [must] always eventually
// regain consistency with the Manager after the service changes",
// provided connectivity is restored.
//
// The checker enumerates a grid of single-outage scenarios — which
// role fails, which interface(s), when, and for how long — always
// leaving ample time after recovery, runs each as a ScenarioSpec under
// the run-time oracle, and reports every scenario in which a User still
// holds a stale description at the end. The paper's
// companion work [24] proved FRODO satisfies the principles and [8]
// reports that first-generation systems do not; the checker reproduces
// both findings empirically (see the tests and EXPERIMENTS.md).
package verify

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// GridConfig bounds the scenario enumeration.
type GridConfig struct {
	// ChangeAt is when the service changes (fixed so every scenario's
	// relation between outage and change is known).
	ChangeAt sim.Time
	// Horizon is the run length; it must leave RecoverySlack after the
	// latest outage end so "eventually" has room.
	Horizon sim.Duration
	// RecoverySlack is the time every protocol is granted after
	// connectivity is restored before the checker calls a violation.
	// It must exceed the longest recovery chain (lease expiry + renewal
	// + announcement period).
	RecoverySlack sim.Duration
	// Starts and Durations enumerate the outage windows.
	Starts    []sim.Time
	Durations []sim.Duration
	// Modes enumerates the outage modes: tx, rx or both.
	Modes []string
	// Targets enumerates the failed roles (experiment.Scenario.RoleNode);
	// a role the system lacks, such as a Registry on UPnP, is skipped.
	Targets []string
	// Seed feeds the (otherwise deterministic) run.
	Seed int64
	// Harden runs every grid scenario with the protocol-hardening layer
	// on; false checks the paper-faithful baseline.
	Harden bool
}

// DefaultGrid covers outages across the change with all modes and
// targets: 3 starts x 4 durations x 3 modes x up-to-3 targets = up to
// 108 scenarios per system.
func DefaultGrid() GridConfig {
	return GridConfig{
		ChangeAt:      1000 * sim.Second,
		Horizon:       12000 * sim.Second,
		RecoverySlack: 4200 * sim.Second,
		Starts:        []sim.Time{400 * sim.Second, 990 * sim.Second, 2000 * sim.Second},
		Durations:     []sim.Duration{300 * sim.Second, 900 * sim.Second, 2000 * sim.Second, 4000 * sim.Second},
		Modes:         []string{"tx", "rx", "both"},
		Targets:       []string{"user:0", "manager", "registry:0"},
		Seed:          1,
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
	o := v.Spec.Outages[0]
	return fmt.Sprintf("%s: %s %s down [%.0fs, %.0fs], change at %.0fs: user %d stale at horizon",
		v.System, o.Node, o.Mode, o.StartSec, o.StartSec+o.DurationSec, v.Spec.ChangeMinSec, v.User)
}

// Result aggregates a grid check.
type Result struct {
	System     experiment.System
	Scenarios  int
	Violations []Violation
}

// Holds reports whether the principles held across the whole grid.
func (r Result) Holds() bool { return len(r.Violations) == 0 }

// Check runs the grid for one system: one ScenarioSpec per cell, each
// audited by ObserveRun — the path `sdverify -scenario` and the chaos
// hunter take — and judged by whether every User holds the changed
// description at the horizon.
func Check(sys experiment.System, grid GridConfig) Result {
	res := Result{System: sys}
	for _, role := range grid.Targets {
		for _, start := range grid.Starts {
			for _, dur := range grid.Durations {
				// Leave the mandated slack after recovery.
				if start+sim.Time(dur+grid.RecoverySlack) > sim.Time(grid.Horizon) {
					continue
				}
				for _, mode := range grid.Modes {
					spec := experiment.ScenarioSpec{
						Seed:         grid.Seed,
						DurationSec:  sim.Time(grid.Horizon).Sec(),
						ChangeMinSec: grid.ChangeAt.Sec(),
						ChangeMaxSec: grid.ChangeAt.Sec(),
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
					_, run := ObserveRun(spec.RunSpec(sys), DefaultOracleConfig(sys))
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
