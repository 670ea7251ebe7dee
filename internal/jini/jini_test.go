package jini

import (
	"testing"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// rig is an N-Registry, 1-Manager, M-User Jini network with a consistency
// recorder.
type rig struct {
	k          *sim.Kernel
	nw         *netsim.Network
	registries []*Registry
	manager    *Manager
	users      []*User

	consistentAt map[netsim.NodeID]map[uint64]sim.Time
}

func newRig(t *testing.T, seed int64, nRegistries, nUsers int, cfg Config) *rig {
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
	for i := 0; i < nRegistries; i++ {
		rnode := r.nw.AddNode("Registry")
		reg := NewRegistry(rnode, cfg)
		reg.Start(sim.Duration(i+1) * sim.Second)
		r.registries = append(r.registries, reg)
	}
	mnode := r.nw.AddNode("Manager")
	r.manager = NewManager(mnode, cfg, discovery.ServiceDescription{
		DeviceType: "Printer", ServiceType: "ColorPrinter",
		Attributes: map[string]string{"PaperTray": "full"},
	})
	r.manager.Start(2 * sim.Second)
	for i := 0; i < nUsers; i++ {
		unode := r.nw.AddNode("User")
		u := NewUser(unode, cfg, discovery.Query{ServiceType: "ColorPrinter"}, listener)
		u.Start(sim.Duration(i+3) * sim.Second)
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
	r := newRig(t, 1, 1, 5, DefaultConfig())
	r.k.Run(200 * sim.Second)
	if !r.registries[0].registered(r.manager.ID()) {
		t.Fatal("manager not registered")
	}
	for i, u := range r.users {
		if got := u.cachedVersion(r.manager.ID()); got != 1 {
			t.Errorf("user %d cached version %d, want 1", i, got)
		}
		if len(u.subscribed) == 0 {
			t.Errorf("user %d not subscribed", i)
		}
	}
	if got := r.registries[0].subs.Len(); got != 5 {
		t.Errorf("registry has %d event subscriptions, want 5", got)
	}
}

func TestChangePropagatesThroughRegistry(t *testing.T) {
	r := newRig(t, 2, 1, 5, DefaultConfig())
	r.k.At(1000*sim.Second, r.change)
	r.k.Run(1100 * sim.Second)
	for i, u := range r.users {
		at, ok := r.whenConsistent(u, 2)
		if !ok {
			t.Fatalf("user %d never reached v2", i)
		}
		if at > 1001*sim.Second {
			t.Errorf("user %d consistent at %v, want within 1s", i, at)
		}
	}
}

// Table 2: Jini needs N+2 discovery-layer messages for one update with a
// single Registry (update + ack + N notifications), m' = 7 for N = 5.
func TestUpdateMessageCountSingleRegistry(t *testing.T) {
	r := newRig(t, 3, 1, 5, DefaultConfig())
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
	if y != 7 {
		t.Errorf("update effort y = %d, want 7 (Table 2: N+2 without TCP messages)", y)
	}
}

// Table 2: with two Registries the effort doubles to 2(N+2) = 14.
func TestUpdateMessageCountTwoRegistries(t *testing.T) {
	r := newRig(t, 4, 2, 5, DefaultConfig())
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
	if got := r.manager.registries.Len(); got != 2 {
		t.Fatalf("manager knows %d registries, want 2", got)
	}
	// The window is padded by a second so the duplicate events of the
	// slower Registry — part of the same exchange, in flight when the
	// last User turned consistent — are counted, as the paper's 2(N+2)
	// does.
	y := r.nw.Counters().CountedInWindow(changeAt, allDone+sim.Second)
	if y != 14 {
		t.Errorf("update effort y = %d, want 14 (Table 2: y(2N+2) without TCP)", y)
	}
}

// A missed remote event stays missed while leases hold: renewals carry no
// data, and Jini has no SRN2. The User's own failure across the change
// leaves it inconsistent for the rest of the run.
func TestMissedEventNotRepairedWhileLeasesLive(t *testing.T) {
	r := newRig(t, 5, 1, 1, DefaultConfig())
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailBoth,
		Start: 2023 * sim.Second, Duration: 810 * sim.Second, // up at 2833
	})
	r.k.At(2507*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	if _, ok := r.whenConsistent(u, 2); ok {
		t.Fatal("user regained consistency; Jini has no subscription-recovery beyond TCP")
	}
}

// The PR1 anomaly: a User that joins after the Manager registered is NOT
// notified of the existing registration; only the PR2 query finds it.
func TestPR1AnomalyRequiresQuery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Techniques = cfg.Techniques.Without(core.PR2) // ablate the query
	r := newRig(t, 6, 1, 0, cfg)
	// Create the late joiner only after the Manager's registration is in
	// place, so its notification request unambiguously post-dates it.
	var u *User
	r.k.At(200*sim.Second, func() {
		unode := r.nw.AddNode("LateUser")
		u = NewUser(unode, cfg, discovery.Query{ServiceType: "ColorPrinter"}, nil)
		u.Start(0)
	})
	r.k.Run(500 * sim.Second)
	if got := u.cachedVersion(r.manager.ID()); got != 0 {
		t.Fatalf("user discovered existing registration without PR2 (version %d)", got)
	}
	// A future re-registration IS notified: force one by failing the
	// Manager long enough for the Registry to purge it.
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.manager.ID(), Mode: netsim.FailBoth,
		Start: 500 * sim.Second, Duration: 2000 * sim.Second, // up at 2500
	})
	r.k.Run(5400 * sim.Second)
	if got := u.cachedVersion(r.manager.ID()); got == 0 {
		t.Error("user not notified of the future re-registration (PR1)")
	}
}

// PR3: after the Registry purges a silent User, the renewal error sends
// the User back through join (notification request + query), which
// restores consistency.
func TestPR3RenewErrorRejoin(t *testing.T) {
	r := newRig(t, 7, 1, 1, DefaultConfig())
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailTx,
		Start: 200 * sim.Second, Duration: 2200 * sim.Second, // up at 2400
	})
	r.k.At(2100*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("PR3 did not recover consistency")
	}
	// Renewals run at 90% of the 1800s lease, so the recovery lands on
	// the first renewal tick after Tx recovery at 2400s.
	if at < 2400*sim.Second || at > 2400*sim.Second+1800*sim.Second {
		t.Errorf("recovered at %v, want within one renewal period of Tx recovery", at)
	}
}

// Registry-side staleness: the Manager's update REXes while the Registry
// is down; renewals then keep the stale registration alive, so Users stay
// inconsistent for the whole run — the weakness SRN2 would have fixed.
func TestRegistryStaleAfterMissedUpdate(t *testing.T) {
	r := newRig(t, 8, 1, 1, DefaultConfig())
	reg := r.registries[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: reg.ID(), Mode: netsim.FailRx,
		Start: 990 * sim.Second, Duration: 200 * sim.Second, // up at 1190
	})
	r.k.At(1000*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	if _, ok := r.whenConsistent(r.users[0], 2); ok {
		t.Fatal("user became consistent; the update should have been lost at the registry")
	}
}

// Manager re-registration after a long Manager failure (PR1) carries the
// current description and heals the whole system.
func TestPR1ReRegistrationHeals(t *testing.T) {
	r := newRig(t, 9, 1, 3, DefaultConfig())
	// Change first, while everyone is up — all users reach v2. Then the
	// change to v3 happens while the Manager is down.
	r.k.At(500*sim.Second, r.change)
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.manager.ID(), Mode: netsim.FailTx,
		Start: 900 * sim.Second, Duration: 2000 * sim.Second, // up at 2900
	})
	r.k.At(1000*sim.Second, r.change) // v3 lost: manager cannot transmit
	r.k.Run(5400 * sim.Second)
	for i, u := range r.users {
		at, ok := r.whenConsistent(u, 3)
		if !ok {
			t.Fatalf("user %d never reached v3", i)
		}
		if at < 2900*sim.Second {
			t.Errorf("user %d consistent at %v, before the manager recovered", i, at)
		}
	}
}

func TestTwoRegistriesDeliverDuplicateEvents(t *testing.T) {
	r := newRig(t, 10, 2, 1, DefaultConfig())
	u := r.users[0]
	r.k.Run(300 * sim.Second)
	if got := u.registries.Len(); got != 2 {
		t.Fatalf("user joined %d registries, want 2", got)
	}
	r.change()
	r.k.Run(400 * sim.Second)
	if got := u.cachedVersion(r.manager.ID()); got != 2 {
		t.Errorf("cached version = %d, want 2", got)
	}
}
