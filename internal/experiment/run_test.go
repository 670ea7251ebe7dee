package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// These tests pin one run of a 40-User FRODO population: deterministic,
// reaching everyone, honouring observers, hardening and fixed outages —
// and deaf to RunSpec.Shards, a compatibility field every run ignores.

// compactSpec is a short FRODO two-party run at a mid-sweep failure rate.
func compactSpec() RunSpec {
	return RunSpec{
		System: Frodo2P,
		Lambda: 0.30,
		Seed:   42,
		Params: Params{
			Topology:           Topology{Users: 40},
			RunDuration:        900 * sim.Second,
			ChangeMin:          100 * sim.Second,
			ChangeMax:          300 * sim.Second,
			FailureWindowStart: 100 * sim.Second,
			FailureWindowEnd:   900 * sim.Second,
			EffortPad:          sim.Second,
		},
	}
}

// churnSpec adds Poisson churn to compactSpec: departures with rejoin
// plus a stream of fresh arrivals.
func churnSpec() RunSpec {
	spec := compactSpec()
	spec.Params.Churn = Churn{Departures: 1.5, MeanAbsence: 120 * sim.Second, Arrivals: 8}
	return spec
}

// TestRunIgnoresShards: a spec asking for shards runs the single kernel,
// equal field for field to the spec that does not ask.
func TestRunIgnoresShards(t *testing.T) { checkIgnoresShards(t, compactSpec) }

// TestChurnRunIgnoresShards is the same contract under churn.
func TestChurnRunIgnoresShards(t *testing.T) { checkIgnoresShards(t, churnSpec) }

func checkIgnoresShards(t *testing.T, spec func() RunSpec) {
	a := Run(spec())
	for _, shards := range []int{1, 2} {
		s := spec()
		s.Shards = shards
		if b := Run(s); !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d diverged from the unset run:\n  shards=0: %+v\n  shards=%d: %+v", shards, a, shards, b)
		}
	}
}

// TestRepeatedRunIsIdentical runs the same spec twice and requires
// identical results, one outcome per User.
func TestRepeatedRunIsIdentical(t *testing.T) {
	a := Run(compactSpec())
	b := Run(compactSpec())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same spec diverged:\n  first:  %+v\n  second: %+v", a, b)
	}
	if len(a.Users) != 40 {
		t.Fatalf("%d user outcomes, want 40", len(a.Users))
	}
}

// TestFailureFreeRunReachesEveryUser drops the failure rate to zero and
// requires every User to reach consistency.
func TestFailureFreeRunReachesEveryUser(t *testing.T) {
	spec := compactSpec()
	spec.Lambda = 0
	res := Run(spec)
	if res.Effort == 0 {
		t.Fatalf("run recorded zero update effort")
	}
	for i, u := range res.Users {
		if !u.Reached {
			t.Fatalf("user %d (node %d) never reached consistency in a failure-free run", i, u.User)
		}
	}
}

// TestChurnRunIsDeterministic runs the same churning spec twice: the
// whole dynamic population must be a pure function of the spec.
func TestChurnRunIsDeterministic(t *testing.T) {
	a := Run(churnSpec())
	b := Run(churnSpec())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two churning runs of the same spec diverged:\n  first:  %+v\n  second: %+v", a, b)
	}
	// Every User — initial, arrived, or retired — yields exactly one
	// outcome, so anything past the initial 40 is a churn arrival.
	if len(a.Users) <= 40 {
		t.Fatalf("%d user outcomes, want > 40 (initial population plus arrivals)", len(a.Users))
	}
}

// TestAllDynamicsRunIsDeterministic piles every dynamic dimension onto
// one run — churn, a flash crowd, a healing bisect partition and
// correlated rack failures — and requires two runs to agree exactly.
func TestAllDynamicsRunIsDeterministic(t *testing.T) {
	spec := churnSpec()
	spec.Params.FlashCrowds = []FlashCrowd{{At: 300 * sim.Second, Users: 12, Window: 60 * sim.Second}}
	spec.Params.Partitions = []netsim.Partition{{Start: 400 * sim.Second, Duration: 200 * sim.Second, Bisect: true}}
	spec.Params.RackFailures = netsim.RackPlanConfig{
		Racks: 8, Fail: 2,
		WindowStart: 150 * sim.Second, WindowEnd: 700 * sim.Second,
		Duration: 120 * sim.Second, Spread: 5 * sim.Second,
	}
	a := Run(spec)
	b := Run(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs with churn+flash+partition+racks diverged:\n  first:  %+v\n  second: %+v", a, b)
	}
	if len(a.Users) < 52 {
		t.Fatalf("%d user outcomes, want ≥ 52 (40 initial + 12 flash arrivals)", len(a.Users))
	}
}

// TestOutagesDarkenTheirUsers runs a fixed outage schedule: each outage
// goes to the User its role names, so taking both interfaces of every
// other User down across the change window keeps exactly those Users
// from reaching consistency.
func TestOutagesDarkenTheirUsers(t *testing.T) {
	spec := compactSpec()
	spec.Lambda = 0
	for i := 1; i < 40; i += 2 {
		spec.Params.Outages = append(spec.Params.Outages, Outage{
			Node: fmt.Sprintf("user:%d", i), Mode: netsim.FailBoth, Start: 50 * sim.Second, Duration: 850 * sim.Second,
		})
	}
	res := Run(spec)
	if len(res.Users) != 40 {
		t.Fatalf("%d user outcomes, want 40", len(res.Users))
	}
	for i, u := range res.Users {
		if dark := i%2 == 1; u.Reached == dark {
			t.Errorf("user:%d (node %d): reached=%v, dark=%v", i, u.User, u.Reached, dark)
		}
	}
}

// TestAttachRunsOnceAndPerturbsNothing pins the Attach contract: one
// call on the one scenario, bound to the measured Manager — and
// observing changes nothing about the run.
func TestAttachRunsOnceAndPerturbsNothing(t *testing.T) {
	spec := compactSpec()
	bare := Run(spec)
	calls := 0
	const mgr = 2 // after the Central and the Backup
	spec.Attach = func(sc *Scenario) {
		calls++
		if sc.ManagerID != mgr {
			t.Errorf("scenario bound to manager %d, want %d", sc.ManagerID, mgr)
		}
	}
	observed := Run(spec)
	if calls != 1 {
		t.Fatalf("Attach called %d times", calls)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Error("Attach perturbed the run")
	}
}

// TestRunHonoursHardening: a hardened spec's run differs from its
// baseline, and every built FRODO User carries the hardened config (the
// schedules it derives are frodo's TestHardenedRetryPolicies).
func TestRunHonoursHardening(t *testing.T) {
	spec := compactSpec()
	spec.Lambda, spec.Seed = 0.6, 7
	base := Run(spec)
	spec.Opts.Hardened = true
	if hard := Run(spec); reflect.DeepEqual(base, hard) {
		t.Error("the hardened run equals the baseline run")
	}
	sc := BuildTopology(Frodo2P, sim.New(7), Topology{Users: 8}, Options{Hardened: true})
	for _, uid := range sc.UserIDs {
		cfg := sc.users[uid].(frodoUser).Config()
		if !cfg.Hardened {
			t.Errorf("node %d built with a baseline config", uid)
		}
	}
}
