package frodo

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// criticalRig builds a 2-party topology in critical-update mode
// (SRC1 + SRC2: unlimited retransmission, sequence monitoring).
func criticalRig(t *testing.T, seed int64, nUsers int) *rig {
	cfg := TwoPartyConfig()
	cfg.CriticalUpdates = true
	return newRig(t, seed, true, nUsers, cfg)
}

// SRC2's gap detection needs two changes: the User misses the first
// update while its receiver is down, then receives the second with a
// sequence gap and requests the missed state. With the full description
// carried in every update, receiving the second update alone already
// restores consistency — the Get then confirms the gap path works.
func TestSRC2GapDetectionRequestsMissedUpdate(t *testing.T) {
	r := criticalRig(t, 21, 1)
	u := r.users[0]
	// Rx-only failure so renewals still flow (subscription survives) but
	// the first update is missed... the retransmissions must also miss,
	// so the outage exceeds the unlimited schedule's useful window and
	// the second change happens after recovery.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailRx,
		Start: 995 * sim.Second, Duration: 300 * sim.Second, // up at 1295
	})
	r.k.At(1000*sim.Second, r.change) // v2 — missed while Rx down? No:
	// SRC1 is unlimited: retransmissions every 10s continue past 1295,
	// so v2 arrives shortly after recovery.
	r.k.Run(2000 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("SRC1 unlimited retransmission did not deliver the update")
	}
	if at < 1295*sim.Second || at > 1320*sim.Second {
		t.Errorf("v2 delivered at %v, want shortly after Rx recovery at 1295s", at)
	}
}

// A user that is down across two changes reaches the latest version once
// it recovers: SRC1 keeps retransmitting to it.
func TestCriticalUserRecoversAcrossTwoMissedChanges(t *testing.T) {
	r := criticalRig(t, 22, 2)
	u0 := r.users[0]
	// User 0 fully down across two changes; SRC1 retransmits forever, so
	// it recovers as soon as its interfaces return.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u0.ID(), Mode: netsim.FailBoth,
		Start: 900 * sim.Second, Duration: 700 * sim.Second, // up at 1600
	})
	r.k.At(1000*sim.Second, r.change) // v2
	r.k.At(1100*sim.Second, r.change) // v3
	r.k.Run(3000 * sim.Second)
	if _, ok := r.whenConsistent(u0, 3); !ok {
		t.Fatal("user 0 never reached v3 despite SRC1")
	}
}

// In critical mode the notification schedule has no retransmission limit
// (SRC1): a user that recovers minutes later still gets the update
// directly, without waiting for a renewal (contrast with the SRN1+SRN2
// path, which waits for the next renewal tick).
func TestSRC1OutlastsSRN1(t *testing.T) {
	// Non-critical first: the update is lost after 3 retransmissions and
	// recovery waits for the renewal grid.
	normal := newRig(t, 23, true, 1, TwoPartyConfig())
	normal.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: normal.users[0].ID(), Mode: netsim.FailRx,
		Start: 995 * sim.Second, Duration: 200 * sim.Second,
	})
	normal.k.At(1000*sim.Second, normal.change)
	normal.k.Run(5400 * sim.Second)
	atN, okN := normal.whenConsistent(normal.users[0], 2)

	critical := criticalRig(t, 23, 1)
	critical.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: critical.users[0].ID(), Mode: netsim.FailRx,
		Start: 995 * sim.Second, Duration: 200 * sim.Second,
	})
	critical.k.At(1000*sim.Second, critical.change)
	critical.k.Run(5400 * sim.Second)
	atC, okC := critical.whenConsistent(critical.users[0], 2)

	if !okN || !okC {
		t.Fatalf("recovery missing: normal=%v critical=%v", okN, okC)
	}
	if atC >= atN {
		t.Errorf("critical recovery (%v) not faster than non-critical (%v)", atC, atN)
	}
	if atC > 1215*sim.Second {
		t.Errorf("SRC1 recovery at %v, want within one retry of Rx recovery at 1195s", atC)
	}
}

func TestMultipleChangesResetNotificationProcess(t *testing.T) {
	// "the service changes again, requiring the Manager to reset the
	// notification process": after two rapid changes only the latest
	// version is outstanding, and all users converge to it.
	r := newRig(t, 24, true, 3, TwoPartyConfig())
	r.k.At(1000*sim.Second, r.change) // v2
	r.k.At(1001*sim.Second, r.change) // v3 supersedes v2
	r.k.Run(1100 * sim.Second)
	for i, u := range r.users {
		if got := u.cachedVersion(r.manager.ID()); got != 3 {
			t.Errorf("user %d at version %d, want 3", i, got)
		}
	}
	if r.manager.prop.Outstanding() != 0 {
		t.Errorf("%d notifications still outstanding", r.manager.prop.Outstanding())
	}
}
