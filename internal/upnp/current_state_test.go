package upnp

import (
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Every send builds its packet from the sender's state at that moment:
// the Manager's description reply, subscription acceptance and
// invalidation carry its current version, a User's subscription and
// renewal the Manager it is subscribed to now.

// TestManagerChangedTwiceSendsTheSecondVersion changes the service twice,
// a second apart: every User must end up holding the second version.
func TestManagerChangedTwiceSendsTheSecondVersion(t *testing.T) {
	r := newRig(t, 3, 5, DefaultConfig())
	r.k.At(1000*sim.Second, r.change)
	r.k.At(1001*sim.Second, func() {
		r.manager.ChangeService(func(a map[string]string) { a["PaperTray"] = "low" })
	})
	r.k.Run(1100 * sim.Second)
	for i, u := range r.users {
		if v := u.CachedVersion(r.manager.ID()); v != 3 {
			t.Errorf("user %d holds version %d after two changes, want 3", i, v)
		}
	}
}

// TestUserRenewsToTheManagerItResubscribedTo subscribes a User to one
// Manager and then to a second, renewing each subscription once: every
// subscription and renewal a Manager receives must name that Manager.
func TestUserRenewsToTheManagerItResubscribedTo(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	u := NewUser(nw.AddNode("User"), DefaultConfig(), discovery.Query{ServiceType: "ColorPrinter"}, nil)
	renewed := map[netsim.NodeID]bool{}
	var managers []netsim.NodeID
	for i := 0; i < 2; i++ {
		n := nw.AddNode("Manager")
		id := n.ID
		managers = append(managers, id)
		n.SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
			switch m.Packet.Kind {
			case wire.Subscribe:
			case wire.Renew:
				renewed[id] = true
			default:
				return
			}
			if m.Packet.Manager != id {
				t.Errorf("Manager %d received %s naming Manager %d", id, m.Kind, m.Packet.Manager)
			}
		}))
	}
	for _, m := range managers {
		u.subscribe(m)
		u.onSubscribeAck(m, discovery.ServiceRecord{})
		u.renew()
		k.Run(k.Now() + sim.Second)
	}
	for _, m := range managers {
		if !renewed[m] {
			t.Errorf("Manager %d received no renewal", m)
		}
	}
}
