package jini

import (
	"slices"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Every send builds its packet from the sender's state at that moment:
// a Manager's Update carries its current description, a Registry's
// remote event the record and sequence number of that subscription, a
// User's subscription and renewal the Manager it is subscribed for now.

// TestManagerChangedTwiceSendsTheSecondVersion changes the service twice,
// a second apart: every User must end up holding the second version.
func TestManagerChangedTwiceSendsTheSecondVersion(t *testing.T) {
	r := newRig(t, 3, 1, 5, DefaultConfig())
	r.k.At(1000*sim.Second, r.change)
	r.k.At(1001*sim.Second, func() {
		r.manager.ChangeService(func(a map[string]string) { a["PaperTray"] = "low" })
	})
	r.k.Run(1100 * sim.Second)
	for i, u := range r.users {
		if v := u.cachedVersion(r.manager.ID()); v != 3 {
			t.Errorf("user %d holds version %d after two changes, want 3", i, v)
		}
	}
}

// TestRegistryNumbersEventsPerSubscription subscribes two Users at
// different times to one Manager's events and updates the Manager twice:
// each event carries the update's record, numbered by the subscription
// it is sent on.
func TestRegistryNumbersEventsPerSubscription(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	r := NewRegistry(nw.AddNode("Registry"), DefaultConfig())
	mgr := nw.AddNode("Manager").ID
	type event struct {
		v   uint64
		seq uint64
	}
	got := map[netsim.NodeID][]event{}
	var users []netsim.NodeID
	for i := 0; i < 2; i++ {
		n := nw.AddNode("User")
		users = append(users, n.ID)
		n.SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
			if m.Packet.Kind == wire.Update && m.Packet.Manager == mgr {
				got[n.ID] = append(got[n.ID], event{m.Packet.SD.Version(), m.Packet.N})
			}
		}))
	}
	deliver := func(from netsim.NodeID, p wire.Packet) {
		r.Deliver(&netsim.Message{From: from, To: r.ID(), Kind: p.Kind.String(), Packet: p})
	}
	sd := discovery.ServiceDescription{ServiceType: "ColorPrinter"}.Freeze()
	deliver(mgr, wire.Packet{Kind: wire.Register, Manager: mgr, SD: sd})
	deliver(users[0], wire.Packet{Kind: wire.Subscribe, Manager: mgr})
	for _, user := range users {
		sd = sd.Mutate(func(a map[string]string) { a["PaperTray"] = "low" })
		deliver(user, wire.Packet{Kind: wire.Subscribe, Manager: mgr})
		deliver(mgr, wire.Packet{Kind: wire.Update, Manager: mgr, SD: sd, N: sd.Version()})
		k.Run(k.Now() + 10*sim.Second)
	}
	want := map[netsim.NodeID][]event{users[0]: {{2, 1}, {3, 2}}, users[1]: {{3, 1}}}
	for _, user := range users {
		if !slices.Equal(got[user], want[user]) {
			t.Errorf("User %d received events %v, want %v", user, got[user], want[user])
		}
	}
}

// TestUserRenewsToTheManagerItResubscribedTo registers a User for one
// Manager's events at a Registry and then for a second Manager's,
// renewing after each: every subscription and renewal must name the
// Manager the User is registered for at that moment.
func TestUserRenewsToTheManagerItResubscribedTo(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	u := NewUser(nw.AddNode("User"), DefaultConfig(), discovery.Query{ServiceType: "ColorPrinter"}, nil)
	reg := nw.AddNode("Registry")
	want := netsim.NoNode
	renewals := 0
	reg.SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
		switch m.Packet.Kind {
		case wire.Subscribe:
		case wire.Renew:
			renewals++
		default:
			return
		}
		if m.Packet.Manager != want {
			t.Errorf("Registry received %s naming Manager %d, want %d", m.Kind, m.Packet.Manager, want)
		}
	}))
	u.registries.Put(reg.ID, struct{}{}, 3600*sim.Second)
	for _, m := range []netsim.NodeID{nw.AddNode("Manager").ID, nw.AddNode("Manager").ID} {
		want = m
		u.forgetRegistry(reg.ID)
		u.subscribe(reg.ID, m)
		u.renewAll()
		k.Run(k.Now() + sim.Second)
	}
	if renewals != 2 {
		t.Errorf("Registry received %d renewals, want 2", renewals)
	}
}
