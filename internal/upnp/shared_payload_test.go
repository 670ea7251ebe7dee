package upnp

import (
	"fmt"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// A boxed payload is shared by every send of the same content: the
// Manager boxes its description reply, subscription acceptance and
// invalidation once per version, a User its Subscribe and Renew once per
// Manager. These tests pin the other half of that bargain — a new
// version or a new Manager gets a new box — and each is shown to catch a
// planted mutant that keeps the first box.

// secondVersionReachesEveryone changes the service twice, a second
// apart, the second time through change. It reports the first User that
// does not end up holding the second version.
func secondVersionReachesEveryone(t *testing.T, change func(m *Manager, mutate func(map[string]string))) error {
	r := newRig(t, 3, 5, DefaultConfig())
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
	m.subs.EachKey(m.notify)
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

// subscribeTo moves a User's subscription to manager, as PR4 does.
type subscribeTo func(u *User, manager netsim.NodeID)

func resubscribe(u *User, manager netsim.NodeID) { u.subscribe(manager) }

// keepFirstSubscriptionBox is the mutant: the subscription boxes are
// built for the first Manager and never rebuilt.
func keepFirstSubscriptionBox(u *User, manager netsim.NodeID) {
	sub, renew := u.subBox, u.renewBox
	u.subscribe(manager)
	if sub != nil {
		u.subBox, u.renewBox = sub, renew
	}
}

// renewsFollowTheManager subscribes a User to one Manager and then to a
// second, renewing each subscription once, and reports the first frame a
// Manager received that names some other Manager.
func renewsFollowTheManager(move subscribeTo) error {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	u := NewUser(nw.AddNode("User"), DefaultConfig(), discovery.Query{ServiceType: "ColorPrinter"}, nil)
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
		u.onSubscribeAck(m, discovery.SubscribeAck{})
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
	if err := renewsFollowTheManager(resubscribe); err != nil {
		t.Error(err)
	}
	if err := renewsFollowTheManager(keepFirstSubscriptionBox); err == nil {
		t.Error("a User that keeps its first subscription box went unnoticed")
	} else {
		t.Logf("mutant caught: %v", err)
	}
}
