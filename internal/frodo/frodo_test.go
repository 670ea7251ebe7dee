package frodo

import (
	"testing"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// rig builds the paper's FRODO topologies (Table 4):
//
//	3-party (a): 1 300D Registry, 1 3D Manager, 5 3D Users
//	2-party (b): 1 300D Registry, 1 300D Manager, 5 300D Users, 1 300D Backup
type rig struct {
	k  *sim.Kernel
	nw *netsim.Network

	registryNode *Node
	backupNode   *Node
	managerNode  *Node
	userNodes    []*Node

	manager *ManagerRole
	users   []*UserRole

	consistentAt map[netsim.NodeID]map[uint64]sim.Time
}

// shared hands a one-off configuration to NewNode, which shares rather
// than copies it.
func shared(cfg Config) *Config { return &cfg }

func printerSD() discovery.ServiceDescription {
	return discovery.ServiceDescription{
		DeviceType: "Printer", ServiceType: "ColorPrinter",
		Attributes: map[string]string{"PaperTray": "full"},
	}
}

func newRig(t *testing.T, seed int64, twoParty bool, nUsers int, cfg Config) *rig {
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

	r.registryNode = NewNode(r.nw.AddNode("Registry"), &cfg, Class300D, 100)
	r.registryNode.Start(1 * sim.Second)

	mgrClass := Class3D
	if twoParty {
		mgrClass = Class300D
	}
	r.managerNode = NewNode(r.nw.AddNode("Manager"), &cfg, mgrClass, 5)
	r.manager = r.managerNode.AttachManager(printerSD())
	r.managerNode.Start(2 * sim.Second)

	userClass := Class3D
	if twoParty {
		userClass = Class300D
	}
	for i := 0; i < nUsers; i++ {
		un := NewNode(r.nw.AddNode("User"), &cfg, userClass, 1)
		r.users = append(r.users, un.AttachUser(discovery.Query{ServiceType: "ColorPrinter"}, listener))
		un.Start(sim.Duration(i+3) * sim.Second)
		r.userNodes = append(r.userNodes, un)
	}

	if twoParty {
		r.backupNode = NewNode(r.nw.AddNode("Backup"), &cfg, Class300D, 50)
		r.backupNode.Start(1500 * sim.Millisecond)
	}
	return r
}

func (r *rig) whenConsistent(u *UserRole, version uint64) (sim.Time, bool) {
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

func TestElectionSingleCandidate(t *testing.T) {
	r := newRig(t, 1, false, 0, DefaultConfig())
	r.k.Run(30 * sim.Second)
	if !r.registryNode.IsCentral() {
		t.Fatal("lone 300D node did not elect itself Central")
	}
}

func TestElectionHighestPowerWins(t *testing.T) {
	r := newRig(t, 2, true, 5, TwoPartyConfig())
	r.k.Run(60 * sim.Second)
	if !r.registryNode.IsCentral() {
		t.Fatal("highest-power node is not the Central")
	}
	for _, nd := range append(r.userNodes, r.managerNode, r.backupNode) {
		if nd.IsCentral() {
			t.Errorf("node %v also believes it is Central", nd)
		}
		if nd.Central() != r.registryNode.ID() {
			t.Errorf("node %v adopted Central %d, want %d", nd, nd.Central(), r.registryNode.ID())
		}
	}
	if !r.backupNode.IsBackup() {
		t.Error("second-most-powerful node was not appointed Backup")
	}
}

func TestBootstrapThreeParty(t *testing.T) {
	r := newRig(t, 3, false, 5, DefaultConfig())
	r.k.Run(100 * sim.Second)
	if !r.manager.registered {
		t.Fatal("manager not registered within 100s")
	}
	for i, u := range r.users {
		if got := u.cachedVersion(r.manager.ID()); got != 1 {
			t.Errorf("user %d cached version %d, want 1", i, got)
		}
		if !u.subActive {
			t.Errorf("user %d not subscribed", i)
		}
	}
	if got := r.registryNode.Registry().subs.Len(); got != 5 {
		t.Errorf("central has %d subscriptions, want 5 (3-party)", got)
	}
}

func TestBootstrapTwoParty(t *testing.T) {
	r := newRig(t, 4, true, 5, TwoPartyConfig())
	r.k.Run(100 * sim.Second)
	if !r.manager.registered {
		t.Fatal("manager not registered within 100s")
	}
	for i, u := range r.users {
		if got := u.cachedVersion(r.manager.ID()); got != 1 {
			t.Errorf("user %d cached version %d, want 1", i, got)
		}
		if !u.subActive {
			t.Errorf("user %d not subscribed", i)
		}
	}
	if got := r.manager.subs.Len(); got != 5 {
		t.Errorf("manager has %d direct subscriptions, want 5 (2-party)", got)
	}
	if got := r.registryNode.Registry().subs.Len(); got != 0 {
		t.Errorf("central has %d subscriptions, want 0 (2-party)", got)
	}
}

func TestChangePropagatesThreeParty(t *testing.T) {
	r := newRig(t, 5, false, 5, DefaultConfig())
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

// Table 2: FRODO propagates N+2 messages per update: the Manager's update
// to the Central, the Central's acknowledgement, and N User updates
// (subscriber acknowledgements are uncounted receipts). m' = 7 for N = 5,
// in both subscription modes.
func TestUpdateMessageCountThreeParty(t *testing.T) {
	testUpdateCount(t, 6, false, DefaultConfig())
}

func TestUpdateMessageCountTwoParty(t *testing.T) {
	testUpdateCount(t, 7, true, TwoPartyConfig())
}

func testUpdateCount(t *testing.T, seed int64, twoParty bool, cfg Config) {
	t.Helper()
	r := newRig(t, seed, twoParty, 5, cfg)
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
	y := r.nw.Counters().CountedInWindow(changeAt, allDone+sim.Second)
	if y != 7 {
		t.Errorf("update effort y = %d, want 7 (Table 2: N+2)", y)
	}
}

// SRN2, the paper's headline technique: in the §6.2 scenario — User fully
// down across the change, notification retransmissions exhausted, the
// subscription still valid — the 2-party Manager retries when the User's
// renewal arrives, and the User regains consistency. The same scenario
// under UPnP never recovers (see the upnp package test).
func TestSRN2RecoversTwoParty(t *testing.T) {
	r := newRig(t, 8, true, 1, TwoPartyConfig())
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailBoth,
		Start: 2023 * sim.Second, Duration: 810 * sim.Second, // up at 2833
	})
	r.k.At(2507*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("SRN2 did not recover consistency")
	}
	// Recovery rides the first subscription renewal after the interfaces
	// come back at 2833s; renewals are 1620s apart (90% of the lease).
	if at < 2833*sim.Second || at > 2833*sim.Second+1700*sim.Second {
		t.Errorf("recovered at %v, want within one renewal period of 2833s", at)
	}
}

// In 3-party mode the Central runs SRN2 on behalf of the delegated
// Manager ("the task of maintaining subscriptions for resource-lean
// Managers is delegated to the Central"; Table 2 lists SRN2 for FRODO
// without qualification): the same §6.2 scenario recovers on the first
// renewal after the User's interfaces return.
func TestCentralSRN2RecoversThreeParty(t *testing.T) {
	r := newRig(t, 9, false, 1, DefaultConfig())
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailBoth,
		Start: 2023 * sim.Second, Duration: 810 * sim.Second,
	})
	r.k.At(2507*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("3-party user never recovered; the Central's delegated SRN2 should cover this")
	}
	if at < 2833*sim.Second || at > 2833*sim.Second+1700*sim.Second {
		t.Errorf("recovered at %v, want within one renewal period of 2833s", at)
	}
	// The ablation confirms SRN2 is the responsible technique.
	cfg := DefaultConfig()
	cfg.Techniques = cfg.Techniques.Without(core.SRN2)
	ra := newRig(t, 9, false, 1, cfg)
	ra.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: ra.users[0].ID(), Mode: netsim.FailBoth,
		Start: 2023 * sim.Second, Duration: 810 * sim.Second,
	})
	ra.k.At(2507*sim.Second, ra.change)
	ra.k.Run(5400 * sim.Second)
	if _, ok := ra.whenConsistent(ra.users[0], 2); ok {
		t.Error("user recovered with SRN2 ablated; another mechanism is leaking")
	}
}

// PR3: the Central purges a silent User; the User's renewal triggers an
// explicit resubscription request whose acknowledgement carries the
// updated description.
func TestPR3ResubscribeThreeParty(t *testing.T) {
	r := newRig(t, 10, false, 1, DefaultConfig())
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
	if at < 2400*sim.Second || at > 2400*sim.Second+1800*sim.Second {
		t.Errorf("recovered at %v, want within one renewal period of Tx recovery", at)
	}
}

// PR4: the 2-party equivalent, at the Manager.
func TestPR4ResubscribeTwoParty(t *testing.T) {
	r := newRig(t, 11, true, 1, TwoPartyConfig())
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: u.ID(), Mode: netsim.FailTx,
		Start: 200 * sim.Second, Duration: 2200 * sim.Second,
	})
	r.k.At(2100*sim.Second, r.change)
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("PR4 did not recover consistency")
	}
	if at < 2400*sim.Second || at > 2400*sim.Second+1800*sim.Second {
		t.Errorf("recovered at %v, want within one renewal period of Tx recovery", at)
	}
}

// PR1: a Manager whose registration the Central purged re-registers after
// recovering (renewal -> error -> full registration), and the Central
// notifies Users with standing interests using the current description.
func TestPR1ReRegistrationNotifiesUsers(t *testing.T) {
	r := newRig(t, 12, false, 3, DefaultConfig())
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.manager.ID(), Mode: netsim.FailTx,
		Start: 900 * sim.Second, Duration: 2000 * sim.Second, // up at 2900
	})
	r.k.At(1000*sim.Second, r.change) // v2 lost: manager cannot transmit
	r.k.Run(5400 * sim.Second)
	for i, u := range r.users {
		at, ok := r.whenConsistent(u, 2)
		if !ok {
			t.Fatalf("user %d never reached v2", i)
		}
		if at < 2900*sim.Second {
			t.Errorf("user %d consistent at %v, before the manager recovered", i, at)
		}
	}
}

// Backup takeover: the Central fails for the rest of the run; the Backup
// takes over and the system keeps working — a change after the takeover
// still reaches the Users (2-party subscriptions are Manager-local, and
// the Manager re-registers with the new Central).
func TestBackupTakeover(t *testing.T) {
	r := newRig(t, 13, true, 3, TwoPartyConfig())
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.registryNode.ID(), Mode: netsim.FailBoth,
		Start: 200 * sim.Second, Duration: 5200 * sim.Second, // down for good
	})
	r.k.Run(3500 * sim.Second) // past backupTimeout after the last announce
	if !r.backupNode.IsCentral() {
		t.Fatal("backup did not take over")
	}
	r.change()
	r.k.Run(3600 * sim.Second)
	for i, u := range r.users {
		if _, ok := r.whenConsistent(u, 2); !ok {
			t.Errorf("user %d missed the post-takeover update", i)
		}
	}
	if r.managerNode.Central() != r.backupNode.ID() {
		t.Errorf("manager's central = %d, want backup %d", r.managerNode.Central(), r.backupNode.ID())
	}
}

// When the original Central recovers, its higher power wins the role
// back; the demoted Backup steps down and the population follows.
func TestCentralRecoveryWinsBack(t *testing.T) {
	r := newRig(t, 14, true, 1, TwoPartyConfig())
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.registryNode.ID(), Mode: netsim.FailBoth,
		Start: 200 * sim.Second, Duration: 3600 * sim.Second, // up at 3800
	})
	r.k.Run(3500 * sim.Second)
	if !r.backupNode.IsCentral() {
		t.Fatal("backup did not take over during the outage")
	}
	r.k.Run(5400 * sim.Second)
	if !r.registryNode.IsCentral() {
		t.Error("recovered high-power central did not reclaim the role")
	}
	if r.backupNode.IsCentral() {
		t.Error("backup did not step down")
	}
	if r.userNodes[0].Central() != r.registryNode.ID() {
		t.Errorf("user follows central %d, want %d", r.userNodes[0].Central(), r.registryNode.ID())
	}
}

func TestThreeCCannotBeUser(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	nd := NewNode(nw.AddNode(""), shared(DefaultConfig()), Class3C, 1)
	defer func() {
		if recover() == nil {
			t.Error("3C user attachment did not panic")
		}
	}()
	nd.AttachUser(discovery.Query{}, nil)
}

func TestManagerGonePurgesAndRediscovers(t *testing.T) {
	// 3-party PR5: the Central purges the silent Manager and tells the
	// subscribed Users; they purge, search, and recover once the Manager
	// re-registers.
	r := newRig(t, 15, false, 1, DefaultConfig())
	u := r.users[0]
	r.nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: r.manager.ID(), Mode: netsim.FailBoth,
		Start: 400 * sim.Second, Duration: 2400 * sim.Second, // up at 2800
	})
	r.k.At(2000*sim.Second, r.change) // during the outage: nothing leaves
	r.k.Run(5400 * sim.Second)
	at, ok := r.whenConsistent(u, 2)
	if !ok {
		t.Fatal("user never recovered after ManagerGone purge")
	}
	if at < 2800*sim.Second {
		t.Errorf("recovered at %v, before the manager was back", at)
	}
}

// TestHardenedRetryPolicies: a hardened node caps its notify and control
// retry schedules, a baseline node keeps the paper's periodic ones, and
// critical-update mode keeps SRC1's unlimited schedule either way.
func TestHardenedRetryPolicies(t *testing.T) {
	base := DefaultConfig()
	if got := base.notifyRetry(); got != core.FrodoNotifyRetry {
		t.Errorf("baseline notify policy = %+v, want %+v", got, core.FrodoNotifyRetry)
	}
	if got := base.controlRetry(); got != core.FrodoControlRetry {
		t.Errorf("baseline control policy = %+v, want %+v", got, core.FrodoControlRetry)
	}
	hard := DefaultConfig()
	hard.Hardened = true
	capped := func(p core.RetryPolicy) core.RetryPolicy { p.Cap = core.HardenedRetryCap; return p }
	if got, want := hard.notifyRetry(), capped(core.FrodoNotifyRetry); got != want {
		t.Errorf("hardened notify policy = %+v, want %+v", got, want)
	}
	if got, want := hard.controlRetry(), capped(core.FrodoControlRetry); got != want {
		t.Errorf("hardened control policy = %+v, want %+v", got, want)
	}
	hard.CriticalUpdates = true
	if got := hard.notifyRetry(); got != core.FrodoCriticalRetry {
		t.Errorf("critical notify policy = %+v, want %+v", got, core.FrodoCriticalRetry)
	}
}
