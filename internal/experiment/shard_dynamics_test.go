package experiment

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// churnSpec extends the compact sharding spec with Poisson churn:
// departures with rejoin plus a stream of fresh arrivals, enough of
// both that a 900s run reshuffles the population on every shard.
func churnSpec(shards int) RunSpec {
	spec := shardSpec(shards)
	spec.Params.Churn = Churn{Departures: 1.5, MeanAbsence: 120 * sim.Second, Arrivals: 8}
	return spec
}

// TestShardedChurnDeterminism runs the same churning (seed, S) twice
// for S = 2 and S = 4: departures are drawn per shard from the owning
// shard's kernel and arrivals placed round-robin by a coordinator
// cursor, so the whole dynamic population must be a pure function of
// the spec.
func TestShardedChurnDeterminism(t *testing.T) {
	for _, shards := range []int{2, 4} {
		a := Run(churnSpec(shards))
		b := Run(churnSpec(shards))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: two churning runs of the same spec diverged:\n  first:  %+v\n  second: %+v", shards, a, b)
		}
		// Every User — initial, arrived, or retired — yields exactly one
		// outcome, so anything past the initial 40 is a churn arrival.
		if len(a.Users) <= 40 {
			t.Fatalf("shards=%d: %d user outcomes, want > 40 (initial population plus arrivals)", shards, len(a.Users))
		}
	}
}

// TestShardedChurnSingleShardIdentity pins the shards ∈ {0,1} contract
// under churn: both take the classic single-fabric path, so a churning
// run's results are equal field for field.
func TestShardedChurnSingleShardIdentity(t *testing.T) {
	a := Run(churnSpec(0))
	b := Run(churnSpec(1))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shards=1 churning run diverged from the unsharded run:\n  shards=0: %+v\n  shards=1: %+v", a, b)
	}
}

// TestShardedDynamicsDeterminism piles every dynamic dimension the
// sharded fabric supports onto one 4-shard run — churn, a flash crowd,
// a healing bisect partition and correlated rack failures — and
// requires two runs to agree exactly. This is the fault coordinator's
// contract: shard 0 resolves every global draw, and each shard arms
// only its own arena.
func TestShardedDynamicsDeterminism(t *testing.T) {
	spec := churnSpec(4)
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
	perShard := make(map[int]int)
	for _, u := range a.Users {
		perShard[u.User.Shard()]++
	}
	for s := 0; s < 4; s++ {
		if perShard[s] == 0 {
			t.Fatalf("shard %d reported no user outcomes; distribution %v", s, perShard)
		}
	}
}

// TestRunSpecValidate pins the up-front validation that replaced the
// mid-run panics: fabric shapes that cannot be built and misplaced
// cross-link config come back as errors naming the problem, and
// supported shapes validate clean.
func TestRunSpecValidate(t *testing.T) {
	base := shardSpec(4)
	cases := []struct {
		name   string
		mutate func(*RunSpec)
		want   string // substring of the error; "" means valid
	}{
		{"sharded frodo2p ok", func(s *RunSpec) {}, ""},
		{"unsharded ok", func(s *RunSpec) { s.Shards = 0 }, ""},
		{"sharded custom cross ok", func(s *RunSpec) {
			s.Cross = netsim.CrossLink{MinDelay: sim.Second, MaxDelay: 2 * sim.Second}
		}, ""},
		{"cross on unsharded", func(s *RunSpec) {
			s.Shards = 0
			s.Cross = netsim.DefaultCrossLink()
		}, "cross-shard link configured on an unsharded run"},
		{"non-FRODO sharded", func(s *RunSpec) { s.System = Jini1 }, "FRODO systems only"},
		{"explicit failures sharded", func(s *RunSpec) {
			s.ExplicitFailures = []netsim.InterfaceFailure{}
			s.ExplicitFailures = append(s.ExplicitFailures, netsim.InterfaceFailure{})
		}, ""},
		{"attach sharded", func(s *RunSpec) { s.Attach = func(*Scenario) {} }, ""},
		{"negative shards", func(s *RunSpec) { s.Shards = -1 }, "must not be negative"},
		{"zero-lookahead cross", func(s *RunSpec) {
			s.Cross = netsim.CrossLink{MinDelay: -sim.Second, MaxDelay: sim.Second}
		}, "MinDelay"},
	}
	for _, tc := range cases {
		spec := base
		tc.mutate(&spec)
		err := spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestShardedExplicitFailures runs a fixed outage schedule on a sharded
// fabric: each outage is dispatched to the shard its NodeID names, so
// taking both interfaces of one remote shard's Users down across the
// change window keeps exactly those Users from reaching consistency.
func TestShardedExplicitFailures(t *testing.T) {
	spec := shardSpec(2)
	spec.Lambda = 0
	const cut = 1 // the shard whose Users go dark
	for local := 0; local < 20; local++ {
		spec.ExplicitFailures = append(spec.ExplicitFailures, netsim.InterfaceFailure{
			Node: netsim.MakeNodeID(cut, local), Mode: netsim.FailBoth,
			Start: 50 * sim.Second, Duration: 850 * sim.Second,
		})
	}
	res := Run(spec)
	if len(res.Users) != 40 {
		t.Fatalf("%d user outcomes, want 40", len(res.Users))
	}
	for i, u := range res.Users {
		if want := u.User.Shard() != cut; u.Reached != want {
			t.Errorf("user %d (shard %d): reached=%v, want %v", i, u.User.Shard(), u.Reached, want)
		}
	}
}

// TestShardedAttachPerShard pins the Attach contract at S > 1: one call
// per shard scenario, in shard order, every scenario bound to the one
// measured Manager — and observing changes nothing about the run.
func TestShardedAttachPerShard(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		spec := shardSpec(shards)
		bare := Run(spec)
		var seen []int
		_, mgr, _ := PaperLayout(Frodo2P)
		spec.Attach = func(sc *Scenario) {
			seen = append(seen, sc.Net.Shard())
			if sc.ManagerID != mgr {
				t.Errorf("shards=%d: shard %d scenario bound to manager %d", shards, sc.Net.Shard(), sc.ManagerID)
			}
		}
		observed := Run(spec)
		if len(seen) != shards {
			t.Fatalf("shards=%d: Attach called %d times (%v)", shards, len(seen), seen)
		}
		for s, got := range seen {
			if got != s {
				t.Errorf("shards=%d: call %d saw shard %d", shards, s, got)
			}
		}
		if !reflect.DeepEqual(bare, observed) {
			t.Errorf("shards=%d: Attach perturbed the run", shards)
		}
	}
}

// TestShardedRunHonoursHardening is the regression test of the sharded
// builder's missing harden.Frodo call: with all four hardening flags a
// spec whose single-kernel run differs from its baseline must differ at
// S=2 too, and a remote shard's FRODO nodes carry the hardened config.
func TestShardedRunHonoursHardening(t *testing.T) {
	all := discovery.Hardening{StrictLease: true, JitterRetry: true, RetireBye: true, CentralRepair: true}
	for _, shards := range []int{1, 2} {
		spec := shardSpec(shards)
		spec.Lambda, spec.Seed = 0.6, 7
		base := Run(spec)
		spec.Params.Hardening = all
		if hard := Run(spec); reflect.DeepEqual(base, hard) {
			t.Errorf("shards=%d: the hardened run equals the baseline run", shards)
		}
	}
	f, err := BuildFabric(Frodo2P, Topology{Users: 8}, Options{Harden: all}, 7, 2, netsim.CrossLink{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	remote := f.ShardScenario(1)
	for _, uid := range remote.UserIDs {
		if h := remote.users[uid].(frodoUser).Config().Harden; h != all {
			t.Errorf("remote shard node %d built with hardening %+v", uid, h)
		}
	}
}
