package hunt

import (
	"fmt"
	"testing"

	"repro/internal/experiment"
	"repro/internal/verify"
)

// Holder-refusal under hardened mode, across all five systems: each
// system's hunted lease-purge fixture pins a baseline timeline in which
// a holder honors a renewal past expiry (the purge never happens or the
// ack leaves far too late), and its hardened counterpart must show the
// strict-lease boundary holding — no violation AND no RenewAck sent
// later than the oracle's purge slack past any lease's expiry.
func TestLeaseBoundaryAcrossSystems(t *testing.T) {
	for _, name := range []string{"upnp", "jini1", "jini2", "frodo3p", "frodo2p"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sys, err := experiment.ParseSystem(name)
			if err != nil {
				t.Fatal(err)
			}
			slack := verify.DefaultOracleConfig(sys).PurgeSlack

			base, err := LoadFixture(fmt.Sprintf("testdata/hunted-%s-lease-purge.json", name))
			if err != nil {
				t.Fatalf("every system needs a committed lease-purge fixture: %v", err)
			}
			baseRep, _, err := Replay(base)
			if err != nil {
				t.Fatalf("baseline fixture drifted: %v", err)
			}
			if baseRep.MaxPurgeLate <= slack {
				t.Errorf("baseline MaxPurgeLate = %v, want > %v (the ack the violation is about)",
					baseRep.MaxPurgeLate, slack)
			}

			hard, err := LoadFixture(fmt.Sprintf("testdata/hardened-%s-lease-purge.json", name))
			if err != nil {
				t.Fatalf("every hunted fixture needs a hardened counterpart: %v", err)
			}
			if !hard.Scenario.Hardened {
				t.Fatal("hardened fixture does not set hardened: true")
			}
			hardRep, _, err := Replay(hard)
			if err != nil {
				t.Fatalf("hardened replay not clean: %v", err)
			}
			if hardRep.MaxPurgeLate > slack {
				t.Errorf("hardened MaxPurgeLate = %v, want ≤ %v: a holder still acked a spent lease",
					hardRep.MaxPurgeLate, slack)
			}
		})
	}
}
