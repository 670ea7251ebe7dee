package verify

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestObserveShardedRun pins the sharded audit path at unit-test scale:
// ObserveRun on a Shards ≥ 2 spec attaches one oracle per shard with a
// shared publication counter, and a failure-free run must come back
// clean with every User consistent.
func TestObserveShardedRun(t *testing.T) {
	spec := experiment.RunSpec{
		System: experiment.Frodo2P,
		Lambda: 0,
		Seed:   7,
		Shards: 3,
		Params: experiment.Params{
			Users:              30,
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
		t.Fatalf("sharded oracle not clean: %v\n%v", rep, rep.Violations)
	}
	if len(res.Users) != 30 {
		t.Fatalf("%d user outcomes, want 30", len(res.Users))
	}
	for i, u := range res.Users {
		if !u.Reached {
			t.Fatalf("user %d (shard %d) never reached consistency in a failure-free run", i, u.User.Shard())
		}
	}
}

// TestObserveShardedChurnPartitionHeal audits a churning 4-shard FRODO
// run through a healing bisect partition end to end: every per-shard
// oracle schedules the single-central heal probe (the partition plan is
// inherited from the spec), every probe runs before the deadline, and
// the run comes back clean. The window timings mirror the hunted
// single-central fixture (split at 3000s, heal at 5000s, 9300s run) so
// the probe instant — heal + CentralTimeout + AnnouncePeriod + slack —
// lands well inside the run. The probe counts only *delivered* Registry
// announcements, so remote shards pass it through genuinely received
// cross-shard announce traffic, not send-side bookkeeping.
func TestObserveShardedChurnPartitionHeal(t *testing.T) {
	spec := partitionHealSpec()
	rep, res := ObserveRun(spec, DefaultOracleConfig(spec.System))
	if !rep.Clean() {
		t.Fatalf("sharded churn+partition oracle not clean: %v\n%v", rep, rep.Violations)
	}
	if rep.ProbesScheduled != spec.Shards {
		t.Fatalf("%d heal probes scheduled, want one per shard (%d)", rep.ProbesScheduled, spec.Shards)
	}
	if rep.ProbesRun != rep.ProbesScheduled {
		t.Fatalf("heal probes ran %d/%d", rep.ProbesRun, rep.ProbesScheduled)
	}
	if len(res.Users) <= 40 {
		t.Fatalf("%d user outcomes, want > 40 (initial population plus churn arrivals)", len(res.Users))
	}
}

// partitionHealOracleGolden is the merged per-shard oracle audit of
// partitionHealSpec, RECORDED ON THE PARENT TREE of the one-fabric
// refactor (verify.AttachShardedOracles + experiment.runSharded). Never
// regenerate it from the code under test.
const partitionHealOracleGolden = "total=0 by=[0 0 0 0] near=[101 0 4 0] slack=[[184 0 0 0 0 0 0 0] [0 0 0 0 0 0 0 170] [0 0 0 0 0 0 0 4] [0 0 0 0 0 0 0 0]] probes=4/4 waived=0 purgeLate=0 users=45 effort=245 sends=871"

// TestShardedPartitionHealOracleGolden pins what the per-shard oracles
// saw — violation and near-miss counts, the slack histograms, probe
// counts, worst purge lateness — and the run's effort, so a refactor of
// the oracle attachment or the sharded schedule shows up as a diff
// rather than as "still clean".
func TestShardedPartitionHealOracleGolden(t *testing.T) {
	spec := partitionHealSpec()
	rep, res := ObserveRun(spec, DefaultOracleConfig(spec.System))
	got := fmt.Sprintf("total=%d by=%v near=%v slack=%v probes=%d/%d waived=%d purgeLate=%d users=%d effort=%d sends=%d",
		rep.Total, rep.ByInvariant, rep.Coverage.NearMisses, rep.Coverage.Slack,
		rep.ProbesRun, rep.ProbesScheduled, rep.Waived, rep.MaxPurgeLate,
		len(res.Users), res.Effort, res.TotalDiscoverySends)
	if got != partitionHealOracleGolden {
		t.Errorf("merged oracle report moved:\n got  %s\n want %s", got, partitionHealOracleGolden)
	}
}

func partitionHealSpec() experiment.RunSpec {
	return experiment.RunSpec{
		System: experiment.Frodo2P,
		Lambda: 0,
		Seed:   11,
		Shards: 4,
		Params: experiment.Params{
			Users:              40,
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
}

// TestShardSmoke is the CI shard-smoke gate (`make shard-smoke`): a
// 4-shard, N=10k FRODO two-party run under the race detector with the
// per-shard oracles attached, Poisson churn reshaping the population
// and a bisect partition splitting and healing mid-run. Gated behind
// SHARD_SMOKE=1 — it simulates a 10k-node fabric, far too heavy for
// every `go test ./...`.
func TestShardSmoke(t *testing.T) {
	if os.Getenv("SHARD_SMOKE") == "" {
		t.Skip("set SHARD_SMOKE=1 (or run `make shard-smoke`) for the 4-shard N=10k oracle gate")
	}
	spec := experiment.RunSpec{
		System: experiment.Frodo2P,
		Lambda: 0.15,
		Seed:   1,
		Shards: 4,
		Params: experiment.Params{
			Users:       10_000,
			RunDuration: 5400 * sim.Second, // heal probe at 700s + HealSlack (4260s) must precede the deadline
			ChangeMin:   100 * sim.Second,
			ChangeMax:   600 * sim.Second,
			// Confine drawn outages to the first 2400s so late failures
			// don't strand Users past the (long) probe horizon.
			FailureWindowStart: 100 * sim.Second,
			FailureWindowEnd:   2400 * sim.Second,
			EffortPad:          sim.Second,
			Churn:              experiment.Churn{Departures: 0.2, MeanAbsence: 200 * sim.Second, Arrivals: 200},
			Partitions: []netsim.Partition{
				{Start: 400 * sim.Second, Duration: 300 * sim.Second, Bisect: true},
			},
		},
	}
	rep, res := ObserveRun(spec, DefaultOracleConfig(spec.System))
	if !rep.Clean() {
		t.Fatalf("shard smoke: oracle not clean: %v\n%v", rep, rep.Violations)
	}
	if rep.ProbesScheduled != spec.Shards || rep.ProbesRun != rep.ProbesScheduled {
		t.Fatalf("shard smoke: heal probes ran %d of %d scheduled, want %d per-shard probes",
			rep.ProbesRun, rep.ProbesScheduled, spec.Shards)
	}
	if len(res.Users) <= 10_000 {
		t.Fatalf("shard smoke: %d user outcomes, want > 10000 (initial population plus churn arrivals)", len(res.Users))
	}
	reached, measured := 0, 0
	for _, u := range res.Users {
		if u.Excluded {
			continue
		}
		measured++
		if u.Reached {
			reached++
		}
	}
	// λ=0.15 outages, churn absences and a 300s partition knock some
	// Users out past the deadline; the gate is that propagation genuinely
	// spans the fabric, not a perfect score.
	if reached < measured*8/10 {
		t.Fatalf("shard smoke: only %d/%d measured users reached consistency", reached, measured)
	}
	if res.Effort == 0 {
		t.Fatalf("shard smoke: zero counted update effort")
	}
	t.Logf("shard smoke: %d/%d measured users consistent (%d outcomes), effort %d, %v",
		reached, measured, len(res.Users), res.Effort, rep)
}
