package verify

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestSlackBuckets(t *testing.T) {
	cases := []struct {
		margin sim.Duration
		want   int
	}{
		{-3 * sim.Second, 0}, {0, 0}, {sim.Second / 2, 0},
		{sim.Second, 1}, {3 * sim.Second, 2}, {4 * sim.Second, 3},
		{63 * sim.Second, 6}, {64 * sim.Second, 7}, {5000 * sim.Second, 7},
	}
	for _, c := range cases {
		if got := slackBucket(c.margin); got != c.want {
			t.Errorf("slackBucket(%v) = %d, want %d", c.margin, got, c.want)
		}
	}
	if countBucket(0) != 0 || countBucket(3) != 3 || countBucket(99) != CoverageBuckets-1 {
		t.Error("countBucket misplaced a version gap")
	}
}

// The coverage signal must be populated by an ordinary clean run — the
// fuzzer's feedback cannot be a flat zero vector — and it must be
// deterministic: same seed, same histograms.
func TestOracleCoverageSignal(t *testing.T) {
	params := experiment.DefaultParams()
	params.RunDuration = 12000 * sim.Second
	params.Partitions = []netsim.Partition{
		{Start: 3000 * sim.Second, Duration: 4000 * sim.Second, Bisect: true},
	}
	spec := experiment.RunSpec{System: experiment.Frodo2P, Lambda: 0, Seed: 7, Params: params}
	rep, _ := ObserveRun(spec, DefaultOracleConfig(experiment.Frodo2P))
	if !rep.Clean() {
		t.Fatalf("baseline run not clean: %s", rep)
	}
	cov := rep.Coverage
	sum := func(inv Invariant) int {
		n := 0
		for _, c := range cov.Slack[inv] {
			n += c
		}
		return n
	}
	// Every consistent cache write lands in the version-bound histogram;
	// the post-change ones sit exactly at the bound.
	if sum(InvVersionBound) == 0 || cov.NearMisses[InvVersionBound] == 0 {
		t.Errorf("version-bound coverage empty: slack=%v near=%d",
			cov.Slack[InvVersionBound], cov.NearMisses[InvVersionBound])
	}
	// Subscription renewals populate the lease-purge margins.
	if sum(InvLeasePurge) == 0 {
		t.Errorf("lease-purge coverage empty: %v", cov.Slack[InvLeasePurge])
	}
	// One heal probe saw exactly one Central.
	if sum(InvSingleCentral) != 1 {
		t.Errorf("single-central coverage = %v, want one probe", cov.Slack[InvSingleCentral])
	}

	again, _ := ObserveRun(spec, DefaultOracleConfig(experiment.Frodo2P))
	if again.Coverage != cov {
		t.Errorf("coverage not deterministic:\n%+v\n%+v", cov, again.Coverage)
	}
}

// Churn composed with a healing bisect partition — Users departing and
// rejoining while the fabric splits and heals, the FRODO minority side
// electing and demoting a usurper Central — must leave every invariant
// intact on all five systems. This is the hostile composition the chaos
// hunter starts from; it must be a clean floor, not a known failure.
func TestOracleCleanUnderChurnAcrossPartition(t *testing.T) {
	params := experiment.DefaultParams()
	params.RunDuration = 12000 * sim.Second
	params.Partitions = []netsim.Partition{
		{Start: 3000 * sim.Second, Duration: 2000 * sim.Second, Bisect: true},
	}
	params.Churn = experiment.Churn{
		Departures:  0.5,
		MeanAbsence: 600 * sim.Second,
		Arrivals:    2,
	}
	for _, sys := range experiment.Systems() {
		rep, res := ObserveRun(experiment.RunSpec{
			System: sys, Lambda: 0, Seed: 7, Params: params,
		}, DefaultOracleConfig(sys))
		if !rep.Clean() {
			t.Errorf("%v: %s", sys, rep)
			for _, v := range rep.Violations {
				t.Logf("%v: %v", sys, v)
			}
		}
		if len(res.Users) == 0 {
			t.Errorf("%v: no user outcomes", sys)
		}
	}
}
