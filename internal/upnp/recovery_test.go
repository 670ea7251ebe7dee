package upnp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The SSDP reconnection rule: a Manager whose transmitter recovers
// advertises immediately, so a purged User re-fetches within
// milliseconds of the recovery rather than waiting for the next
// periodic train.
func TestManagerAnnouncesOnInterfaceRecovery(t *testing.T) {
	r := newRig(t, 30, 1, DefaultConfig())
	u := r.users[0]
	// Manager fully down long enough for the User to purge it
	// (cache lease 1800s without refreshing announcements), with the
	// change lost during the outage.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.manager.ID(), Mode: netsim.FailBoth,
		Start: 500 * sim.Second, Duration: 2500 * sim.Second, // up at 3000
	})
	r.k.At(1000*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("user never recovered")
	}
	// The recovery announcement fires at 3000s; without it the next
	// train would wait until the 1800s grid. Allow the GET+SUBSCRIBE
	// exchange a little time.
	if at > 3005*sim.Second {
		t.Errorf("recovered at %v, want within seconds of the 3000s recovery announcement", at)
	}
}

// Announcements refresh the cache lease: with the Manager healthy, a
// User's cache entry must never expire across many lease periods.
func TestAnnouncementsKeepCacheAlive(t *testing.T) {
	r := newRig(t, 31, 1, DefaultConfig())
	u := r.users[0]
	r.k.Run(5400 * sim.Second)
	if got := u.CachedVersion(r.manager.ID()); got != 1 {
		t.Errorf("cache lost without failures: version %d", got)
	}
	if u.subscribedTo == netsim.NoNode {
		t.Error("subscription lost without failures")
	}
}

// A duplicate invalidation for an already-cached version is ignored: no
// redundant GET traffic.
func TestStaleInvalidationIgnored(t *testing.T) {
	r := newRig(t, 32, 1, DefaultConfig())
	u := r.users[0]
	r.k.Run(100 * sim.Second)
	before := r.nw.Counters().PerKind()["Get"]
	u.Deliver(&netsim.Message{From: r.manager.ID(),
		Packet: wire.Packet{Kind: wire.Invalidate, Manager: r.manager.ID(), N: 1}}) // version already held
	r.k.Run(200 * sim.Second)
	after := r.nw.Counters().PerKind()["Get"]
	if after != before {
		t.Errorf("stale invalidation triggered %d extra GETs", after-before)
	}
}

// Renewals run at 90% of the lease, so a single missed renewal expires
// the subscription — and the next renewal triggers PR4, which restores
// it with current state. This is the purge-rediscovery regime the paper
// describes for higher failure rates.
func TestMissedRenewalExpiresThenPR4Restores(t *testing.T) {
	r := newRig(t, 33, 1, DefaultConfig())
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.manager.ID(), Mode: netsim.FailRx,
		Start: 1500 * sim.Second, Duration: 400 * sim.Second, // the ~1622s renewal REXes
	})
	r.k.Run(2500 * sim.Second)
	if r.manager.subs.Len() != 0 {
		t.Fatalf("subscribers = %d; the missed renewal should have expired the lease",
			r.manager.subs.Len())
	}
	// The next renewal tick (~3242s) meets PR4 and resubscribes.
	r.k.Run(3400 * sim.Second)
	if r.manager.subs.Len() != 1 {
		t.Errorf("subscribers = %d; PR4 should have restored the subscription",
			r.manager.subs.Len())
	}
	if r.users[0].subscribedTo == netsim.NoNode {
		t.Error("user does not believe it is subscribed after PR4")
	}
}
