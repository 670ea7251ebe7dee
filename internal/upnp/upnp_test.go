package upnp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// rig is a 1-Manager, N-User UPnP network with a consistency recorder.
type rig struct {
	k       *sim.Kernel
	nw      *netsim.Network
	manager *Manager
	users   []*User
	// consistentAt[user] records when each version was first cached.
	consistentAt map[netsim.NodeID]map[uint64]sim.Time
}

func newRig(t *testing.T, seed int64, nUsers int, cfg Config) *rig {
	t.Helper()
	r := &rig{k: sim.New(seed), consistentAt: map[netsim.NodeID]map[uint64]sim.Time{}}
	r.nw = netsim.MustNew(r.k, netsim.DefaultConfig())
	listener := discovery.ListenerFunc(func(at sim.Time, user, mgr netsim.NodeID, v uint64) {
		if r.consistentAt[user] == nil {
			r.consistentAt[user] = map[uint64]sim.Time{}
		}
		if _, seen := r.consistentAt[user][v]; !seen {
			r.consistentAt[user][v] = at
		}
	})
	mnode := r.nw.AddNode("Manager")
	r.manager = NewManager(mnode, cfg, discovery.ServiceDescription{
		DeviceType: "Printer", ServiceType: "ColorPrinter",
		Attributes: map[string]string{"PaperTray": "full"},
	})
	r.manager.Start(1 * sim.Second)
	for i := 0; i < nUsers; i++ {
		unode := r.nw.AddNode("User")
		u := NewUser(unode, cfg, discovery.Query{ServiceType: "ColorPrinter"}, listener)
		u.Start(sim.Duration(i+2) * sim.Second)
		r.users = append(r.users, u)
	}
	return r
}

func (r *rig) whenConsistent(u *User, version uint64) (sim.Time, bool) {
	m, ok := r.consistentAt[u.ID()]
	if !ok {
		return 0, false
	}
	at, ok := m[version]
	return at, ok
}

func (r *rig) change() {
	r.manager.ChangeService(func(a map[string]string) { a["PaperTray"] = "empty" })
}

func TestBootstrapDiscoveryWithin100s(t *testing.T) {
	r := newRig(t, 1, 5, DefaultConfig())
	r.k.Run(100 * sim.Second)
	for i, u := range r.users {
		if got := u.CachedVersion(r.manager.ID()); got != 1 {
			t.Errorf("user %d cached version %d, want 1", i, got)
		}
		if !u.Subscribed() {
			t.Errorf("user %d not subscribed after boot", i)
		}
	}
	if r.manager.Subscribers() != 5 {
		t.Errorf("manager has %d subscribers, want 5", r.manager.Subscribers())
	}
}

func TestChangePropagatesWithoutFailures(t *testing.T) {
	r := newRig(t, 2, 5, DefaultConfig())
	r.k.At(1000*sim.Second, r.change)
	r.k.Run(1100 * sim.Second)
	for i, u := range r.users {
		at, ok := r.whenConsistent(u, 2)
		if !ok {
			t.Fatalf("user %d never reached v2", i)
		}
		if at < 1000*sim.Second || at > 1001*sim.Second {
			t.Errorf("user %d consistent at %v, want within 1s of the change", i, at)
		}
	}
}

// Table 2: UPnP needs 3N discovery-layer messages to propagate an update
// to N Users (NOTIFY + GET + 200 OK each), m' = 15 for N = 5.
func TestUpdateMessageCountMatchesTable2(t *testing.T) {
	r := newRig(t, 3, 5, DefaultConfig())
	changeAt := 1000 * sim.Second
	r.k.At(changeAt, r.change)
	r.k.Run(1100 * sim.Second)
	var allDone sim.Time
	for i, u := range r.users {
		at, ok := r.whenConsistent(u, 2)
		if !ok {
			t.Fatalf("user %d never consistent", i)
		}
		if at > allDone {
			allDone = at
		}
	}
	y := r.nw.Counters().CountedInWindow(changeAt, allDone)
	if y != 15 {
		t.Errorf("update effort y = %d, want 15 (Table 2: 3N without TCP messages)", y)
	}
}

// The §6.2 case study: the User's interfaces are down across the change;
// the NOTIFY REXes; the subscription survives (renewals resume before the
// lease runs out); the User never regains consistency.
func TestSRN2CaseStudyUserNeverRegainsConsistency(t *testing.T) {
	r := newRig(t, 4, 1, DefaultConfig())
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailBoth,
		Start: 2023 * sim.Second, Duration: 810 * sim.Second, // up at 2833
	})
	r.k.At(2507*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	if _, ok := r.whenConsistent(u, 2); ok {
		t.Fatal("user regained consistency; UPnP lacks SRN2, it must not")
	}
	if got := u.CachedVersion(r.manager.ID()); got != 1 {
		t.Errorf("cached version = %d, want stale 1", got)
	}
	if !u.Subscribed() {
		t.Error("subscription should have survived the short failure")
	}
}

// PR4: a long failure expires the subscription at the Manager; the User's
// next renewal triggers a resubscription request, and resubscribing
// returns the current state.
func TestPR4ResubscribeRecovery(t *testing.T) {
	r := newRig(t, 5, 1, DefaultConfig())
	u := r.users[0]
	// Fail only the transmitter: announcements keep refreshing the User's
	// cache (no PR5), but renewals cannot leave, so the Manager purges the
	// subscription. Change happens during the failure.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailTx,
		Start: 200 * sim.Second, Duration: 2200 * sim.Second, // up at 2400
	})
	r.k.At(2100*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("PR4 did not recover consistency")
	}
	// Recovery happens at the first renewal after Tx recovery (renewals
	// run at 90% of the 1800s lease), well before the end of the run.
	if at < 2400*sim.Second || at > 2400*sim.Second+1800*sim.Second {
		t.Errorf("recovered at %v, want within one renewal period of recovery", at)
	}
	if !u.Subscribed() {
		t.Error("user should be resubscribed")
	}
}

// PR4 ablation: with the technique disabled the same scenario never
// recovers.
func TestPR4AblationDoesNotRecover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Techniques = cfg.Techniques.Without(core.PR4)
	r := newRig(t, 5, 1, cfg)
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailTx,
		Start: 200 * sim.Second, Duration: 2200 * sim.Second,
	})
	r.k.At(2100*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	if _, ok := r.whenConsistent(u, 2); ok {
		t.Fatal("recovered without PR4; only PR4 explains recovery here")
	}
}

// PR5: a node failure long enough to expire the User's cache leads to
// purge and rediscovery through the Manager's announcements or M-SEARCH,
// after which the fetched description is current.
func TestPR5PurgeAndRediscover(t *testing.T) {
	r := newRig(t, 6, 1, DefaultConfig())
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailBoth,
		Start: 500 * sim.Second, Duration: 2500 * sim.Second, // up at 3000
	})
	r.k.At(1000*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("PR5 did not recover consistency")
	}
	if at < 3000*sim.Second {
		t.Errorf("recovered at %v, before the node was even up", at)
	}
	if !u.Subscribed() {
		t.Error("user should be resubscribed after rediscovery")
	}
}

// The invalidation-only NOTIFY means a User that got the NOTIFY but whose
// GET path is broken knows it is stale and keeps retrying the fetch. The
// NOTIFY is delivered directly here because with real TCP the knowledge/
// no-fetch split only opens in a microsecond window.
func TestInvalidationRetryAfterFailedGet(t *testing.T) {
	r := newRig(t, 7, 1, DefaultConfig())
	u := r.users[0]
	r.k.Run(100 * sim.Second) // boot: discovered and subscribed
	r.change()
	// Manager unreachable when the invalidation lands.
	mgr := r.nw.Node(r.manager.ID())
	mgr.SetRx(false)
	r.k.After(0, func() {
		u.Deliver(&netsim.Message{From: r.manager.ID(),
			Packet: wire.Packet{Kind: wire.Invalidate, Manager: r.manager.ID(), N: 2}})
	})
	recoverAt := r.k.Now() + 500*sim.Second
	r.k.At(recoverAt, func() { mgr.SetRx(true) })
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("user never recovered despite knowing it was stale")
	}
	// GET retries every GetRetryPeriod (60s) plus the REX latency of the
	// attempt in flight when the Manager recovers (~102s).
	if at < recoverAt || at > recoverAt+200*sim.Second {
		t.Errorf("recovered at %v, want within ~200s after Manager recovery at %v", at, recoverAt)
	}
}

func TestManagerAnswersMatchingSearchOnly(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 8, 0, cfg)
	// A user with a non-matching requirement never caches the service.
	unode := r.nw.AddNode("PickyUser")
	u := NewUser(unode, cfg, discovery.Query{ServiceType: "Scanner"}, nil)
	u.Start(2 * sim.Second)
	r.k.Run(300 * sim.Second)
	if got := u.CachedVersion(r.manager.ID()); got != 0 {
		t.Errorf("non-matching user cached version %d", got)
	}
	if u.Subscribed() {
		t.Error("non-matching user subscribed")
	}
}
