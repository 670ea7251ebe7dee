// Package verify checks the Configuration Update Principles (§4.1)
// systematically: "the User and/or Registry [must] always eventually
// regain consistency with the Manager after the service changes",
// provided connectivity is restored.
//
// The checker lists a grid of single-outage scenarios — which role
// fails, which interface(s), when, and for how long — always leaving
// ample time after recovery, as ScenarioSpecs, audits them in parallel
// under the run-time oracle, and reports every scenario in which a User
// still holds a stale description at the end, and every one the oracle
// flags.
// The paper's companion work [24] proved FRODO satisfies the principles
// and [8] reports that first-generation systems do not; the checker
// reproduces both findings empirically (see the tests and EXPERIMENTS.md).
package verify

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/metrics"
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

// Grid is the single-outage scenario grid: one ScenarioSpec per cell,
// role-major, then outage start, duration and mode — 3 targets x 3
// starts x 4 durations x 3 modes, less the windows that would leave no
// GridRecoverySlack before the horizon: 108 cells. harden runs every
// cell with the protocol-hardening layer on; false checks the
// paper-faithful baseline. A cell whose role a system lacks, such as a
// Registry on UPnP, is skipped by Check.
func Grid(harden bool) []experiment.ScenarioSpec {
	var cells []experiment.ScenarioSpec
	for _, role := range []string{"user:0", "manager", "registry:0"} {
		for _, start := range []sim.Time{400 * sim.Second, 990 * sim.Second, 2000 * sim.Second} {
			for _, dur := range []sim.Duration{300 * sim.Second, 900 * sim.Second, 2000 * sim.Second, 4000 * sim.Second} {
				// Leave the mandated slack after recovery.
				if start+dur+GridRecoverySlack > GridHorizon {
					continue
				}
				for _, mode := range []string{"tx", "rx", "both"} {
					cells = append(cells, experiment.ScenarioSpec{
						Seed:         gridSeed,
						DurationSec:  GridHorizon.Sec(),
						ChangeMinSec: GridChangeAt.Sec(),
						ChangeMaxSec: GridChangeAt.Sec(),
						Outages: []experiment.SpecOutage{{Node: role, Mode: mode,
							StartSec: start.Sec(), DurationSec: sim.Time(dur).Sec()}},
						Hardened: harden,
					})
				}
			}
		}
	}
	return cells
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

// Audited is one audited run: the oracle's report and the run's metrics.
type Audited struct {
	Report OracleReport
	Run    metrics.RunResult
}

// Audit runs every spec through ObserveRun under its system's default
// oracle on experiment.Pool with workers goroutines (0 means
// GOMAXPROCS), and returns the audits in spec order. progress, when
// set, is called after each completed run.
func Audit(specs []experiment.RunSpec, workers int, progress func(done, total int)) []Audited {
	out := make([]Audited, len(specs))
	done := 0
	experiment.Pool(len(specs), workers, func() func(int) Audited {
		return func(i int) Audited {
			rep, res := ObserveRun(specs[i], DefaultOracleConfig(specs[i].System))
			return Audited{rep, res}
		}
	}, func(i int, a Audited) {
		out[i] = a
		done++
		if progress != nil {
			progress(done, len(specs))
		}
	})
	return out
}

// Check audits the grid cells for one system: each cell whose roles the
// system has is one spec audited by ObserveRun — the path `sdverify
// -scenario` and the chaos hunter take — on GOMAXPROCS workers, and
// judged by whether every User holds the changed description at the
// horizon. The oracle's report of every cell is kept in Result.Oracle
// and Result.Breaches.
func Check(sys experiment.System, cells []experiment.ScenarioSpec) Result {
	var kept []experiment.ScenarioSpec
	var specs []experiment.RunSpec
	for _, spec := range cells {
		if spec.Params().CheckOutages(sys) == nil {
			kept = append(kept, spec)
			specs = append(specs, spec.RunSpec(sys))
		}
	}
	res := Result{Scenarios: len(kept)}
	for i, a := range Audit(specs, 0, nil) {
		spec := kept[i]
		if !a.Report.Clean() {
			res.Breaches = append(res.Breaches, Breach{System: sys, Spec: spec, Report: a.Report})
		}
		for inv, n := range a.Report.ByInvariant {
			res.Oracle[inv] += n
		}
		for _, u := range a.Run.Users {
			if !u.Reached {
				res.Violations = append(res.Violations, Violation{System: sys, Spec: spec, User: u.User})
			}
		}
	}
	return res
}
