package jini

import (
	"fmt"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// A boxed payload is shared by every send of the same content: the
// Manager boxes its Update and Register once per version, the Registry
// a remote event once per description and sequence number, a User its
// Subscribe and Renew once per Manager. These tests pin the other half
// of that bargain — new content gets a new box — and the protocol-level
// ones are shown to catch a planted mutant that keeps the first box.

// secondVersionReachesEveryone changes the service twice, a second
// apart, the second time through change. It reports the first User that
// does not end up holding the second version.
func secondVersionReachesEveryone(t *testing.T, change func(m *Manager, mutate func(map[string]string))) error {
	r := newRig(t, 3, 1, 5, DefaultConfig())
	r.k.At(1000*sim.Second, r.change)
	r.k.At(1001*sim.Second, func() {
		change(r.manager, func(a map[string]string) { a["PaperTray"] = "low" })
	})
	r.k.Run(1100 * sim.Second)
	for i, u := range r.users {
		if v := u.CachedVersion(r.manager.ID()); v != 3 {
			return fmt.Errorf("user %d holds version %d after two changes, want 3", i, v)
		}
	}
	return nil
}

// keepFirstChangeBoxes is the mutant: a change that sends the boxes at
// hand instead of boxing the new version.
func keepFirstChangeBoxes(m *Manager, mutate func(map[string]string)) {
	m.sd = m.sd.Mutate(mutate)
	m.registries.EachKey(m.sendUpdate)
}

func TestManagerChangedTwiceSendsTheSecondVersion(t *testing.T) {
	if err := secondVersionReachesEveryone(t, (*Manager).ChangeService); err != nil {
		t.Error(err)
	}
	if err := secondVersionReachesEveryone(t, keepFirstChangeBoxes); err == nil {
		t.Error("a Manager that keeps the first change's boxes went unnoticed")
	} else {
		t.Logf("mutant caught: %v", err)
	}
}

func TestRegistryEventBoxes(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	r := NewRegistry(nw.AddNode("Registry"), DefaultConfig())
	sd := discovery.ServiceDescription{ServiceType: "ColorPrinter"}.Freeze()
	v1 := discovery.ServiceRecord{Manager: 7, SD: sd}
	v2 := discovery.ServiceRecord{Manager: 7, SD: sd.Mutate(func(a map[string]string) { a["PaperTray"] = "empty" })}
	other := discovery.ServiceRecord{Manager: 8, SD: sd}

	check := func(rec discovery.ServiceRecord, seq uint64) {
		t.Helper()
		if p := r.event(rec, seq).(discovery.Update); p.Rec != rec || p.Seq != seq {
			t.Errorf("event(%v, %d) carries %v numbered %d", rec, seq, p.Rec, p.Seq)
		}
	}
	check(v1, 1)
	check(v1, 2)
	check(other, 1)
	if allocs := testing.AllocsPerRun(10, func() { check(v1, 1); check(v1, 2); check(other, 1) }); allocs != 0 {
		t.Errorf("a repeated event costs %.1f allocs, want 0: the box is shared", allocs)
	}
	check(v2, 1) // the new description drops both boxes of the old one
	if len(r.events) != 2 {
		t.Errorf("%d event boxes held after the description changed, want 2", len(r.events))
	}
	r.Rearm()
	if len(r.events) != 0 {
		t.Errorf("%d event boxes held across a rearm", len(r.events))
	}
}

// subscribeAt moves a User's event registration at reg to manager.
type subscribeAt func(u *User, reg, manager netsim.NodeID)

func resubscribe(u *User, reg, manager netsim.NodeID) {
	u.forgetRegistry(reg)
	u.subscribe(reg, manager)
}

// keepFirstSubscriptionBox is the mutant: the subscription boxes are
// built for the first Manager and never rebuilt.
func keepFirstSubscriptionBox(u *User, reg, manager netsim.NodeID) {
	sub, renew := u.subBox, u.renewBox
	resubscribe(u, reg, manager)
	if sub != nil {
		u.subBox, u.renewBox = sub, renew
	}
}

// renewsFollowTheManager registers a User for one Manager's events at a
// Registry and then for a second Manager's, renewing after each, and
// reports the first frame that names a Manager other than the current
// one.
func renewsFollowTheManager(move subscribeAt) error {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	u := NewUser(nw.AddNode("User"), DefaultConfig(), discovery.Query{ServiceType: "ColorPrinter"}, nil)
	reg := nw.AddNode("Registry")
	want := netsim.NoNode
	renewals := 0
	var wrong error
	reg.SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
		named := want
		switch p := m.Payload.(type) {
		case discovery.Subscribe:
			named = p.Manager
		case discovery.Renew:
			named = p.Manager
			renewals++
		}
		if named != want && wrong == nil {
			wrong = fmt.Errorf("Registry received %s naming Manager %d, want %d", m.Kind, named, want)
		}
	}))
	u.registries.Put(reg.ID, struct{}{}, 3600*sim.Second)
	for _, m := range []netsim.NodeID{nw.AddNode("Manager").ID, nw.AddNode("Manager").ID} {
		want = m
		move(u, reg.ID, m)
		u.renewAll()
		k.Run(k.Now() + sim.Second)
	}
	if wrong != nil {
		return wrong
	}
	if renewals != 2 {
		return fmt.Errorf("Registry received %d renewals, want 2", renewals)
	}
	return nil
}

func TestUserRenewsToTheManagerItResubscribedTo(t *testing.T) {
	if err := renewsFollowTheManager(resubscribe); err != nil {
		t.Error(err)
	}
	if err := renewsFollowTheManager(keepFirstSubscriptionBox); err == nil {
		t.Error("a User that keeps its first subscription box went unnoticed")
	} else {
		t.Logf("mutant caught: %v", err)
	}
}
