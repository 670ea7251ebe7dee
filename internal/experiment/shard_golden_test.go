package experiment

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// runFingerprint hashes everything observable about one RunResult.
func runFingerprint(r metrics.RunResult) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "lambda=%v seed=%d change=%d deadline=%d effort=%d sends=%d transport=%d users=%#v",
		r.Lambda, r.Seed, r.ChangeAt, r.Deadline, r.Effort, r.TotalDiscoverySends, r.TotalTransport, r.Users)
	return fmt.Sprintf("%016x", h.Sum64())
}

// fullDynamicsSpec is the spec of TestShardedDynamicsDeterminism: churn,
// a flash crowd, a healing bisect partition and rack failures at once.
func fullDynamicsSpec(shards int) RunSpec {
	spec := churnSpec(shards)
	spec.Params.FlashCrowds = []FlashCrowd{{At: 300 * sim.Second, Users: 12, Window: 60 * sim.Second}}
	spec.Params.Partitions = []netsim.Partition{{Start: 400 * sim.Second, Duration: 200 * sim.Second, Bisect: true}}
	spec.Params.RackFailures = netsim.RackPlanConfig{
		Racks: 8, Fail: 2,
		WindowStart: 150 * sim.Second, WindowEnd: 700 * sim.Second,
		Duration: 120 * sim.Second, Spread: 5 * sim.Second,
	}
	return spec
}

// shardGoldens freezes sharded RunResults RECORDED ON THE PARENT TREE of
// the one-fabric refactor (shard.go's hand-kept mirror of the single-
// kernel path), so the determinism tests' "a run equals itself" is backed
// by "a run equals what the mirror produced". Never regenerate from the
// code under test; a PR that intentionally moves a sharded timeline
// records the new values on its own tree and says so.
var shardGoldens = map[string]string{
	"static/S2/seed42":   "0df3ee2f6529f9dd",
	"static/S2/seed43":   "30255bb1d41190ae",
	"static/S2/seed44":   "31e287d2fb42c545",
	"static/S4/seed42":   "ec6519355bc595e3",
	"static/S4/seed43":   "a9f8e3ccb56bf4b7",
	"static/S4/seed44":   "9f0e50ebbeea203f",
	"churn/S2/seed42":    "f6c86786323c720a",
	"churn/S2/seed43":    "3aba195e1a4fe1ac",
	"churn/S2/seed44":    "2d69af9886c16b2a",
	"churn/S4/seed42":    "770821683f56711c",
	"churn/S4/seed43":    "202d3ceeae77c16e",
	"churn/S4/seed44":    "57a8a04c443f4afa",
	"dynamics/S2/seed42": "ad13eda90899fba4",
	"dynamics/S2/seed43": "f0a3657eb2b1a0cf",
	"dynamics/S2/seed44": "b2a6631970e7f5cd",
	"dynamics/S4/seed42": "4d2f3bf9b731bd71",
	"dynamics/S4/seed43": "39440e5eda6bd6da",
	"dynamics/S4/seed44": "c38277724b24fe0e",
}

func TestShardedGoldens(t *testing.T) {
	scenarios := []struct {
		name string
		spec func(shards int) RunSpec
	}{
		{"static", shardSpec},
		{"churn", churnSpec},
		{"dynamics", fullDynamicsSpec},
	}
	for _, sc := range scenarios {
		for _, shards := range []int{2, 4} {
			for seed := int64(42); seed <= 44; seed++ {
				spec := sc.spec(shards)
				spec.Seed = seed
				key := fmt.Sprintf("%s/S%d/seed%d", sc.name, shards, seed)
				if got := runFingerprint(Run(spec)); got != shardGoldens[key] {
					t.Errorf("%q: %q, // golden %q", key, got, shardGoldens[key])
				}
			}
		}
	}
}
