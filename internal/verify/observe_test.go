package verify

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestObserveFailureFreeRunIsClean: ObserveRun on a failure-free FRODO
// run comes back clean with every User consistent.
func TestObserveFailureFreeRunIsClean(t *testing.T) {
	spec := experiment.RunSpec{
		System: experiment.Frodo2P,
		Lambda: 0,
		Seed:   7,
		Params: experiment.Params{
			Topology:           experiment.Topology{Users: 30},
			RunDuration:        900 * sim.Second,
			ChangeMin:          100 * sim.Second,
			ChangeMax:          300 * sim.Second,
			FailureWindowStart: 100 * sim.Second,
			FailureWindowEnd:   900 * sim.Second,
			EffortPad:          sim.Second,
		},
	}
	rep, res := ObserveRun(spec, DefaultOracleConfig(spec.System))
	if !rep.Clean() {
		t.Fatalf("oracle not clean: %v\n%v", rep, rep.Violations)
	}
	if len(res.Users) != 30 {
		t.Fatalf("%d user outcomes, want 30", len(res.Users))
	}
	for i, u := range res.Users {
		if !u.Reached {
			t.Fatalf("user %d (node %d) never reached consistency in a failure-free run", i, u.User)
		}
	}
}

// TestObserveChurnPartitionHeal audits a churning FRODO run
// through a healing bisect partition end to end: the oracle schedules the
// single-central heal probe (the partition plan is inherited from the
// spec), the probe runs before the deadline, and the run comes back
// clean. The window timings mirror the hunted single-central fixture
// (split at 3000s, heal at 5000s, 9300s run) so the probe instant — heal
// + CentralTimeout + AnnouncePeriod + slack — lands well inside the run.
func TestObserveChurnPartitionHeal(t *testing.T) {
	spec := experiment.RunSpec{
		System: experiment.Frodo2P,
		Lambda: 0,
		Seed:   11,
		Params: experiment.Params{
			Topology:           experiment.Topology{Users: 40},
			RunDuration:        9300 * sim.Second,
			ChangeMin:          100 * sim.Second,
			ChangeMax:          300 * sim.Second,
			FailureWindowStart: 100 * sim.Second,
			FailureWindowEnd:   9300 * sim.Second,
			EffortPad:          sim.Second,
			Churn:              experiment.Churn{Departures: 1, MeanAbsence: 300 * sim.Second, Arrivals: 6},
			Partitions: []netsim.Partition{
				{Start: 3000 * sim.Second, Duration: 2000 * sim.Second, Bisect: true},
			},
		},
	}
	rep, res := ObserveRun(spec, DefaultOracleConfig(spec.System))
	if !rep.Clean() {
		t.Fatalf("churn+partition oracle not clean: %v\n%v", rep, rep.Violations)
	}
	if rep.ProbesScheduled != 1 || rep.ProbesRun != 1 {
		t.Fatalf("heal probes ran %d of %d scheduled, want 1 of 1", rep.ProbesRun, rep.ProbesScheduled)
	}
	if len(res.Users) <= 40 {
		t.Fatalf("%d user outcomes, want > 40 (initial population plus churn arrivals)", len(res.Users))
	}
}
