// Package verify checks the Configuration Update Principles (§4.1)
// systematically: "the User and/or Registry [must] always eventually
// regain consistency with the Manager after the service changes",
// provided connectivity is restored.
//
// The checker enumerates a grid of single-outage scenarios — which
// entity fails, which interface(s), when, and for how long — always
// leaving ample time after recovery, and reports every scenario in which
// a User still holds a stale description at the end. The paper's
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

// Target selects which entity the grid fails.
type Target int

const (
	// TargetUser fails the first User.
	TargetUser Target = iota
	// TargetManager fails the Manager.
	TargetManager
	// TargetRegistry fails the (first) Registry; skipped for UPnP, which
	// has none.
	TargetRegistry
)

func (t Target) String() string {
	switch t {
	case TargetUser:
		return "User"
	case TargetManager:
		return "Manager"
	case TargetRegistry:
		return "Registry"
	default:
		return "?"
	}
}

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
	// Modes enumerates the interface failure modes.
	Modes []netsim.FailMode
	// Targets enumerates the failed entity.
	Targets []Target
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
		Modes:         []netsim.FailMode{netsim.FailTx, netsim.FailRx, netsim.FailBoth},
		Targets:       []Target{TargetUser, TargetManager, TargetRegistry},
		Seed:          1,
	}
}

// Violation is one scenario in which a User failed to regain consistency
// despite restored connectivity.
type Violation struct {
	System  experiment.System
	Target  Target
	Failure netsim.InterfaceFailure
	User    netsim.NodeID
	// StaleAtEnd reports the version gap: true means the User never saw
	// the post-change version at all.
	StaleAtEnd bool
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s %s down [%.0fs, %.0fs], change at fixed time: user %d stale at horizon",
		v.System, v.Target, v.Failure.Mode, v.Failure.Start.Sec(), v.Failure.End().Sec(), v.User)
}

// Result aggregates a grid check.
type Result struct {
	System     experiment.System
	Scenarios  int
	Violations []Violation
}

// Holds reports whether the principles held across the whole grid.
func (r Result) Holds() bool { return len(r.Violations) == 0 }

// Check runs the grid for one system.
func Check(sys experiment.System, grid GridConfig) Result {
	res := Result{System: sys}
	params := experiment.DefaultParams()
	params.RunDuration = grid.Horizon
	params.ChangeMin, params.ChangeMax = grid.ChangeAt, grid.ChangeAt
	params.Hardened = grid.Harden

	for _, target := range grid.Targets {
		node, ok := targetNode(sys, target)
		if !ok {
			continue
		}
		for _, start := range grid.Starts {
			for _, dur := range grid.Durations {
				// Leave the mandated slack after recovery.
				if sim.Time(dur)+start+sim.Time(grid.RecoverySlack) > sim.Time(grid.Horizon) {
					continue
				}
				for _, mode := range grid.Modes {
					f := netsim.InterfaceFailure{Node: node, Mode: mode, Start: start, Duration: dur}
					res.Scenarios++
					run := experiment.Run(experiment.RunSpec{
						System: sys, Seed: grid.Seed, Params: params,
						ExplicitFailures: []netsim.InterfaceFailure{f},
					})
					for _, u := range run.Users {
						if !u.Reached {
							res.Violations = append(res.Violations, Violation{
								System: sys, Target: target, Failure: f,
								User: u.User, StaleAtEnd: true,
							})
						}
					}
				}
			}
		}
	}
	return res
}

// targetNode maps a Target to the node index of the Build order.
func targetNode(sys experiment.System, t Target) (netsim.NodeID, bool) {
	registries, manager, firstUser := experiment.PaperLayout(sys)
	switch t {
	case TargetRegistry:
		if len(registries) == 0 {
			return 0, false
		}
		return registries[0], true
	case TargetManager:
		return manager, true
	case TargetUser:
		return firstUser, true
	}
	return 0, false
}
