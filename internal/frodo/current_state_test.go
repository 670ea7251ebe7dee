package frodo

import (
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Every send builds its packet from the sender's state at that moment:
// a User's subscription and renewal name the Manager it is subscribed to
// now, a propagator's retransmission carries the change it holds now.

// TestUserRenewsToTheManagerItResubscribedTo subscribes a User to one
// Manager and then, on the second Manager's PR4 request, to that one,
// renewing each subscription once: every subscription and renewal a
// Manager receives must name that Manager.
func TestUserRenewsToTheManagerItResubscribedTo(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	cfg := TwoPartyConfig()
	u := NewNode(nw.AddNode("User"), &cfg, Class300D, 1).AttachUser(discovery.Query{ServiceType: "ColorPrinter"}, nil)
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
		u.onResubscribeRequest(m, m)
		u.onSubscribeAck(m, discovery.ServiceRecord{Manager: m})
		u.renew()
		k.Run(k.Now() + sim.Second)
	}
	for _, m := range managers {
		if !renewed[m] {
			t.Errorf("Manager %d received no renewal", m)
		}
	}
}

// TestManagerChangedTwiceSendsTheSecondVersion changes a 2-party service
// twice while every subscriber's receiver is down, so both first
// transmissions are lost and only the retransmissions can deliver: every
// subscriber must end up holding the second version.
func TestManagerChangedTwiceSendsTheSecondVersion(t *testing.T) {
	r := newRig(t, 9, true, 5, TwoPartyConfig())
	setRx := func(up bool) {
		for _, u := range r.users {
			r.nw.Node(u.ID()).SetRx(up)
		}
	}
	r.k.At(999*sim.Second, func() { setRx(false) })
	r.k.At(1000*sim.Second, r.change)
	r.k.At(1001*sim.Second, r.change)
	r.k.At(1005*sim.Second, func() { setRx(true) })
	r.k.Run(1100 * sim.Second)
	for i, u := range r.users {
		if v := u.CachedVersion(r.manager.ID()); v != 3 {
			t.Errorf("subscriber %d holds version %d after two changes, want 3", i, v)
		}
	}
}
