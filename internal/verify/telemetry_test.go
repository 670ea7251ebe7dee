package verify_test

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/hunt"
	"repro/internal/obs"
	"repro/internal/verify"
)

// A simulated run that meters into a registry gets the oracle's
// sd_oracle_* series there too: the one attach path mirrors what the
// oracle reports, invariant by invariant.
func TestObserveRunMetersOracle(t *testing.T) {
	fx, err := hunt.LoadFixture("../hunt/testdata/hunted-frodo2p-single-central.json")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := experiment.ParseSystem(fx.System)
	if err != nil {
		t.Fatal(err)
	}
	spec := fx.Scenario.RunSpec(sys)
	reg := obs.NewRegistry()
	spec.Telemetry = reg
	rep, _ := verify.ObserveRun(spec, verify.DefaultOracleConfig(sys))
	if rep.Total == 0 {
		t.Fatal("the hunted fixture replayed clean: the test is vacuous")
	}
	for inv, want := range rep.ByInvariant {
		name := verify.Invariant(inv).String()
		got := reg.Counter("sd_oracle_violations_total", "invariant", name, "shard", "0").Load()
		if got != uint64(want) {
			t.Errorf("sd_oracle_violations_total{invariant=%q} = %d, the report counts %d", name, got, want)
		}
		near := reg.Counter("sd_oracle_near_misses_total", "invariant", name, "shard", "0").Load()
		if near != uint64(rep.Coverage.NearMisses[inv]) {
			t.Errorf("sd_oracle_near_misses_total{invariant=%q} = %d, the report counts %d", name, near, rep.Coverage.NearMisses[inv])
		}
	}
}
