package jini

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// The Registry vouches for the services discovered through it: while it
// announces, a User's cached record stays valid indefinitely without any
// events — and so does a stale one.
func TestRegistryAnnouncementsKeepCacheAlive(t *testing.T) {
	r := newRig(t, 40, 1, 1, DefaultConfig())
	u := r.users[0]
	r.k.Run(5400 * sim.Second)
	if got := u.cachedVersion(r.manager.ID()); got != 1 {
		t.Errorf("cache lost without failures: version %d", got)
	}
	if len(u.subscribed) == 0 {
		t.Error("subscription lost without failures")
	}
}

// A silent Registry is purged after its cache lease; the next
// announcement train re-joins, and the PR2 query restores the service.
func TestRegistryPurgeAndRejoin(t *testing.T) {
	r := newRig(t, 41, 1, 1, DefaultConfig())
	u := r.users[0]
	// Registry fully down for 2000s: everyone purges it.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.registries[0].ID(), Mode: netsim.FailBoth,
		Start: 500 * sim.Second, Duration: 2000 * sim.Second, // up at 2500
	})
	r.k.At(2400*sim.Second, func() {
		if got := u.registries.Len(); got != 0 {
			t.Errorf("user still knows %d registries during long registry outage", got)
		}
	})
	r.k.At(1000*sim.Second, r.change) // lost: registry down
	r.k.Run(5400 * sim.Second)
	if got := u.registries.Len(); got != 1 {
		t.Fatalf("user did not rejoin the recovered registry (knows %d)", got)
	}
	// The outage also expired the Manager's registration, so after
	// recovery the Manager's renewal errors and it re-registers with the
	// current description — PR1 then delivers v2 to the rejoined User.
	// (Staleness persists only when the registration lease survives the
	// outage; see TestRegistryStaleAfterMissedUpdate.)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("PR1 re-registration did not heal the rejoined user")
	}
	if at < 2500*sim.Second {
		t.Errorf("recovered at %v, before the registry was back", at)
	}
}

// Event subscriptions and notification requests expire at the Registry
// when the User goes silent.
func TestRegistryPurgesSilentUser(t *testing.T) {
	r := newRig(t, 42, 1, 1, DefaultConfig())
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.users[0].ID(), Mode: netsim.FailTx,
		Start: 300 * sim.Second, Duration: 4000 * sim.Second,
	})
	r.k.Run(2500 * sim.Second)
	if got := r.registries[0].subs.Len(); got != 0 {
		t.Errorf("registry still holds %d event subscriptions for a silent user", got)
	}
}

// With two Registries, losing either one at change time does not cost
// consistency: the other delivers the event. This is the redundancy that
// lifts Jini-2's effectiveness above Jini-1.
func TestTwoRegistryRedundancyCoversSingleRegistryLoss(t *testing.T) {
	for _, failIdx := range []int{0, 1} {
		r := newRig(t, 43, 2, 3, DefaultConfig())
		r.nw.ScheduleFailure(netsim.InterfaceFailure{
			Node: r.registries[failIdx].ID(), Mode: netsim.FailBoth,
			Start: 900 * sim.Second, Duration: 2000 * sim.Second,
		})
		r.k.At(1000*sim.Second, r.change)
		r.k.Run(1200 * sim.Second)
		for i, u := range r.users {
			at, ok := r.whenConsistent(u, 2)
			if !ok {
				t.Fatalf("registry %d down: user %d missed the event despite redundancy", failIdx, i)
			}
			if at > 1001*sim.Second {
				t.Errorf("registry %d down: user %d consistent at %v, want immediate", failIdx, i, at)
			}
		}
	}
}

// The notification request lease expires with the rest of the user's
// state; a later renewal gets the PR3 error and the full join sequence
// runs again.
func TestNotificationRequestExpiryTriggersPR3Rejoin(t *testing.T) {
	r := newRig(t, 44, 1, 1, DefaultConfig())
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailTx,
		Start: 300 * sim.Second, Duration: 3200 * sim.Second, // up at 3500
	})
	r.k.At(2000*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("PR3 rejoin did not restore consistency")
	}
	if at < 3500*sim.Second {
		t.Errorf("recovered at %v, before Tx recovery", at)
	}
}

// SRC2 via event sequence numbers: with two changes and the second event
// arriving first... sequence gaps need multiple events; with a single
// registry and ordered TCP the common case is a missed event followed by
// a later one, repaired by the gap-triggered query.
func TestEventSequenceGapTriggersQuery(t *testing.T) {
	r := newRig(t, 45, 1, 1, DefaultConfig())
	u := r.users[0]
	// The user's receiver fails across the first change only.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailRx,
		Start: 995 * sim.Second, Duration: 300 * sim.Second, // up at 1295
	})
	r.k.At(1000*sim.Second, r.change) // v2: event lost (REX)
	r.k.At(2000*sim.Second, r.change) // v3: delivered with a gap
	r.k.Run(2500 * sim.Second)
	if got := u.cachedVersion(r.manager.ID()); got != 3 {
		t.Fatalf("cached version %d, want 3", got)
	}
	if _, ok := r.whenConsistent(u, 3); !ok {
		t.Fatal("v3 never recorded")
	}
}
