package frodo

import (
	"fmt"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// A boxed payload is shared by every send of the same content: a User's
// subscription request and renewal are boxed once per subscribed Manager,
// a propagator's Update once per change. These tests pin the other half
// of that bargain — a new Manager or a new version gets a new box — and
// each is shown to catch a planted mutant that keeps the first box.

// resubscribe moves a User's subscription to another Manager, as that
// Manager's PR4 request does.
type resubscribe func(u *UserRole, to netsim.NodeID)

func resubscribeOnRequest(u *UserRole, to netsim.NodeID) {
	u.onResubscribeRequest(to, discovery.ResubscribeRequest{Manager: to})
}

// keepFirstSubscriptionBox is the mutant: the subscription boxes are
// built for the first Manager and never rebuilt.
func keepFirstSubscriptionBox(u *UserRole, to netsim.NodeID) {
	sub, renew := u.subBox, u.renewBox
	resubscribeOnRequest(u, to)
	if sub != nil {
		u.subBox, u.renewBox = sub, renew
	}
}

// renewsFollowTheManager subscribes a User to one Manager and then to a
// second, renewing each subscription once, and reports the first frame a
// Manager received that names some other Manager.
func renewsFollowTheManager(move resubscribe) error {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	cfg := TwoPartyConfig()
	u := NewNode(nw.AddNode("User"), &cfg, Class300D, 1).AttachUser(discovery.Query{ServiceType: "ColorPrinter"}, nil)
	renewed := map[netsim.NodeID]bool{}
	var wrong error
	var managers []netsim.NodeID
	for i := 0; i < 2; i++ {
		n := nw.AddNode("Manager")
		id := n.ID
		managers = append(managers, id)
		n.SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
			named := netsim.NoNode
			switch p := m.Payload.(type) {
			case discovery.Subscribe:
				named = p.Manager
			case discovery.Renew:
				named, renewed[id] = p.Manager, true
			}
			if named != id && wrong == nil {
				wrong = fmt.Errorf("Manager %d received %s naming Manager %d", id, m.Kind, named)
			}
		}))
	}
	for _, m := range managers {
		move(u, m)
		u.onSubscribeAck(m, discovery.SubscribeAck{Manager: m})
		u.renew()
		k.Run(k.Now() + sim.Second)
	}
	if wrong != nil {
		return wrong
	}
	for _, m := range managers {
		if !renewed[m] {
			return fmt.Errorf("Manager %d received no renewal", m)
		}
	}
	return nil
}

func TestUserRenewsToTheManagerItResubscribedTo(t *testing.T) {
	if err := renewsFollowTheManager(resubscribeOnRequest); err != nil {
		t.Error(err)
	}
	if err := renewsFollowTheManager(keepFirstSubscriptionBox); err == nil {
		t.Error("a User that keeps its first subscription box went unnoticed")
	} else {
		t.Logf("mutant caught: %v", err)
	}
}

// secondVersionReachesEveryone changes a 2-party service twice while
// every subscriber's receiver is down, so both first transmissions are
// lost and only the retransmissions can deliver; plant, if set, runs
// right after the second change. It reports the first subscriber that
// does not end up holding the second version.
func secondVersionReachesEveryone(t *testing.T, plant func(p *propagator, first netsim.Outgoing)) error {
	r := newRig(t, 9, true, 5, TwoPartyConfig())
	setRx := func(up bool) {
		for _, u := range r.users {
			r.nw.Node(u.ID()).SetRx(up)
		}
	}
	var first netsim.Outgoing
	r.k.At(999*sim.Second, func() { setRx(false) })
	r.k.At(1000*sim.Second, func() {
		r.change()
		first = r.manager.prop.out
	})
	r.k.At(1001*sim.Second, func() {
		r.change()
		if plant != nil {
			plant(r.manager.prop, first)
		}
	})
	r.k.At(1005*sim.Second, func() { setRx(true) })
	r.k.Run(1100 * sim.Second)
	for i, u := range r.users {
		if v := u.CachedVersion(r.manager.ID()); v != 3 {
			return fmt.Errorf("subscriber %d holds version %d after two changes, want 3", i, v)
		}
	}
	return nil
}

// keepFirstUpdateBox is the mutant: every notification goes on carrying
// the box of the first change.
func keepFirstUpdateBox(p *propagator, first netsim.Outgoing) {
	p.out = first
	for _, pn := range p.pending {
		pn.out = first
	}
}

func TestManagerChangedTwiceSendsTheSecondVersion(t *testing.T) {
	if err := secondVersionReachesEveryone(t, nil); err != nil {
		t.Error(err)
	}
	if err := secondVersionReachesEveryone(t, keepFirstUpdateBox); err == nil {
		t.Error("a propagator that keeps the first change's box went unnoticed")
	} else {
		t.Logf("mutant caught: %v", err)
	}
}
