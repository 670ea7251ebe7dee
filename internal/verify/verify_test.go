package verify

import (
	"bytes"
	"testing"

	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// FRODO satisfies the Configuration Update Principles across the whole
// single-outage grid: whenever connectivity is restored with enough time
// left, every User eventually regains consistency. This reproduces the
// paper's claim that "FRODO is the first service discovery protocol that
// provides guarantees" [24].
func TestFrodoSatisfiesConfigurationUpdatePrinciples(t *testing.T) {
	for _, sys := range []experiment.System{experiment.Frodo3P, experiment.Frodo2P} {
		res := Check(sys, Grid(false))
		if res.Scenarios == 0 {
			t.Fatalf("%v: empty grid", sys)
		}
		for _, v := range res.Violations {
			t.Errorf("%v", v)
		}
		if !res.Holds() {
			t.Errorf("%v: %d/%d scenarios violate the principles", sys,
				len(res.Violations), res.Scenarios)
		}
	}
}

// First-generation systems do not provide the guarantee: the grid finds
// scenarios in which a User stays inconsistent forever although all
// nodes recovered — reproducing Dabrowski and Mills' finding reported in
// §2 ("first-generation service discovery systems do not provide
// guarantees of correct behavior").
func TestFirstGenerationSystemsViolatePrinciples(t *testing.T) {
	for _, sys := range []experiment.System{experiment.UPnP, experiment.Jini1, experiment.Jini2} {
		res := Check(sys, Grid(false))
		if res.Holds() {
			t.Errorf("%v: expected guarantee violations, found none in %d scenarios",
				sys, res.Scenarios)
		}
		t.Logf("%v: %d violations across %d scenarios", sys, len(res.Violations), res.Scenarios)
	}
}

// TestDefaultGridCounts pins the guarantee grid's (scenarios,
// violations) per system, baseline and hardened: on single outages the
// hardening layer closes none of the first-generation violations.
func TestDefaultGridCounts(t *testing.T) {
	want := map[experiment.System][2]int{
		experiment.UPnP:    {72, 36},
		experiment.Jini1:   {108, 66},
		experiment.Jini2:   {108, 36},
		experiment.Frodo3P: {108, 0},
		experiment.Frodo2P: {108, 0},
	}
	for _, harden := range []bool{false, true} {
		grid := Grid(harden)
		for _, sys := range experiment.Systems() {
			res := Check(sys, grid)
			if got := [2]int{res.Scenarios, len(res.Violations)}; got != want[sys] {
				t.Errorf("%v hardened=%v: (scenarios, violations) = %v, want %v", sys, harden, got, want[sys])
			}
		}
	}
}

// TestDefaultGridOracleCounts pins what the oracle sees on the same
// grid: on the baseline, 18 of the 108 cells of each FRODO system carry
// one lease-purge breach — a Registry acks a Manager's renewal of a lease
// that expired while the Manager or the Central was cut off — although
// every User ends consistent. The first-generation systems and every
// hardened grid stay clean.
func TestDefaultGridOracleCounts(t *testing.T) {
	for _, harden := range []bool{false, true} {
		grid := Grid(harden)
		for _, sys := range experiment.Systems() {
			var want [numInvariants]int
			wantCells := 0
			if !harden && (sys == experiment.Frodo3P || sys == experiment.Frodo2P) {
				want[InvLeasePurge], wantCells = 18, 18
			}
			res := Check(sys, grid)
			if res.Oracle != want || len(res.Breaches) != wantCells {
				t.Errorf("%v hardened=%v: oracle %v over %d cells, want %v over %d", sys, harden, res.Oracle, len(res.Breaches), want, wantCells)
			}
			for _, b := range res.Breaches {
				if o := b.Spec.Outages[0]; o.Node == "user:0" || b.Report.Total != 1 {
					t.Errorf("%v: unexpected breach %v", sys, b)
				}
			}
		}
	}
}

// The canonical violation shape: the silent missed-notification class
// (the §6.2 scenario generalized). The violating scenarios must include
// an outage overlapping the change with the subscription surviving.
func TestUPnPViolationsIncludeMissedNotificationClass(t *testing.T) {
	res := Check(experiment.UPnP, Grid(false))
	found := false
	for _, v := range res.Violations {
		o := v.Spec.Outages[0]
		overlapsChange := o.StartSec <= 1000 && o.StartSec+o.DurationSec >= 1000
		short := o.DurationSec <= 900 // too short to expire leases
		if overlapsChange && short {
			found = true
			break
		}
	}
	if !found {
		t.Error("no short outage-across-change violation found; the §6.2 class should appear")
	}
}

// A grid finding replays from its spec alone: encoded, parsed back and
// run through ObserveRun — what `sdverify -scenario` does with the file —
// it leaves the same User stale.
func TestGridViolationReplaysFromItsSpec(t *testing.T) {
	res := Check(experiment.UPnP, Grid(false))
	if res.Holds() {
		t.Fatal("no UPnP violation to replay")
	}
	v := res.Violations[0]
	data, err := v.Spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := experiment.ParseSpec(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, run := ObserveRun(spec.RunSpec(experiment.UPnP), DefaultOracleConfig(experiment.UPnP))
	for _, u := range run.Users {
		if u.User == v.User && u.Reached {
			t.Errorf("%v: the replayed spec reaches user %d", v, v.User)
		}
	}
}

// The grid lists 108 cells, 36 per role; a system that lacks a role
// skips its cells, so UPnP, without a Registry, runs 72.
func TestGridSkipsRegistryTargetForUPnP(t *testing.T) {
	var registry []experiment.ScenarioSpec
	for _, c := range Grid(false) {
		if c.Outages[0].Node == "registry:0" {
			registry = append(registry, c)
		}
	}
	if len(registry) != 36 {
		t.Fatalf("%d registry:0 cells, want 36", len(registry))
	}
	if res := Check(experiment.UPnP, registry); res.Scenarios != 0 {
		t.Errorf("UPnP has no registry; %d scenarios ran", res.Scenarios)
	}
	if res := Check(experiment.Jini1, registry); res.Scenarios != 36 {
		t.Errorf("Jini-1's registry:0 ran %d scenarios, want 36", res.Scenarios)
	}
	if res := Check(experiment.UPnP, Grid(false)); res.Scenarios != 72 {
		t.Errorf("UPnP ran %d scenarios, want 72", res.Scenarios)
	}
}

// Every cell is a valid spec that ends its outage by GridHorizon −
// GridRecoverySlack, so "eventually" has room, and carries the mode
// asked for.
func TestGridRespectsRecoverySlack(t *testing.T) {
	for _, harden := range []bool{false, true} {
		cells := Grid(harden)
		if len(cells) != 108 {
			t.Errorf("hardened=%v: %d cells, want 108", harden, len(cells))
		}
		for _, c := range cells {
			if err := c.Validate(); err != nil {
				t.Errorf("invalid cell %+v: %v", c, err)
			}
			if o := c.Outages[0]; o.StartSec+o.DurationSec > (GridHorizon - GridRecoverySlack).Sec() {
				t.Errorf("cell without recovery slack: %+v", o)
			}
			if c.Hardened != harden || c.DurationSec != GridHorizon.Sec() {
				t.Errorf("cell %+v: hardened %v, duration %v", c, c.Hardened, c.DurationSec)
			}
		}
	}
}

// TestTargetNodeMapping pins where the default grid's roles land in the
// paper topology of each system.
func TestTargetNodeMapping(t *testing.T) {
	cases := []struct {
		sys  experiment.System
		role string
		want netsim.NodeID
		ok   bool
	}{
		{experiment.UPnP, "manager", 0, true},
		{experiment.UPnP, "user:0", 1, true},
		{experiment.UPnP, "registry:0", 0, false},
		{experiment.Jini2, "manager", 2, true},
		{experiment.Frodo2P, "manager", 2, true},
		{experiment.Frodo2P, "user:0", 3, true},
		{experiment.Frodo2P, "registry:0", 0, true},
	}
	for _, c := range cases {
		sc := experiment.BuildTopology(c.sys, sim.New(1), experiment.Topology{Users: 5}, experiment.Options{})
		got, err := sc.RoleNode(c.role)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("%v %s = %v, %v; want %v, ok=%v", c.sys, c.role, got, err, c.want, c.ok)
		}
	}
}
