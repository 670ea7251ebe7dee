package upnp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// digest renders what a delivery can change in the rig short of sending,
// scheduling or drawing: every cache and subscription with its expiry (a
// renewal moves a deadline without changing Kernel.Pending) and every
// timer's state.
func (r *rig) digest() string {
	var b strings.Builder
	m := r.manager
	fmt.Fprintf(&b, "manager{v%d announcing=%v", m.sd.Version(), m.announcer.Running())
	m.subs.EachKey(func(u netsim.NodeID) {
		at, _ := m.subs.Expiry(u)
		fmt.Fprintf(&b, " sub[%d]@%d", u, at)
	})
	b.WriteString("}\n")
	for _, u := range r.users {
		fmt.Fprintf(&b, "user%d{sub=%d renewing=%v searching=%v stale=%d getting=%v/%v stopped=%v",
			u.ID(), u.subscribedTo, u.renewTick.Running(), u.searchTick.Running(),
			u.staleVersion, u.getting, u.getTick.Running(), u.stopped)
		u.cache.Each(func(mgr netsim.NodeID, rec discovery.ServiceRecord) {
			at, _ := u.cache.Expiry(mgr)
			fmt.Fprintf(&b, " cache[%d]=v%d@%d", mgr, rec.SD.Version(), at)
		})
		b.WriteString("}\n")
	}
	fmt.Fprintf(&b, "sends=%d pending=%d", r.nw.Counters().Sends, r.k.Pending())
	return b.String()
}

// topicRig runs the rig to a moment of its life; past 100 s the Manager
// has fallen silent, so by 2200 s the Users purged it and search again.
func topicRig(t *testing.T, until sim.Time) *rig {
	r := newRig(t, 11, 2, DefaultConfig())
	if until > 100*sim.Second {
		r.k.At(100*sim.Second, func() {
			r.manager.node.SetTx(false)
			r.manager.node.SetRx(false)
		})
	}
	r.k.Run(until)
	return r
}

// An endpoint that declines a topic must be deaf to it in fact: handed
// such a frame anyway — at boot, mid-discovery, subscribed, or searching
// again — it sends nothing, schedules nothing, draws nothing and changes
// no cache, lease or timer. Otherwise a handler that starts acting on a
// kind would stay silently scoped out of the frames that carry it.
func TestDeclinedTopicsAreNoOps(t *testing.T) {
	search := wire.Packet{Kind: wire.Search, Q: &discovery.Query{ServiceType: "ColorPrinter"}}
	alive := wire.Packet{Kind: wire.Announce, Role: wire.RoleManager, Lease: cacheLease}
	cases := []struct {
		who    string
		ep     func(*rig) (netsim.Endpoint, netsim.NodeID)
		topic  netsim.Topic
		packet wire.Packet
	}{
		{"User", func(r *rig) (netsim.Endpoint, netsim.NodeID) { return r.users[0], r.users[0].ID() }, TopicSearch, search},
		{"Manager", func(r *rig) (netsim.Endpoint, netsim.NodeID) { return r.manager, r.manager.ID() }, TopicAlive, alive},
	}
	for _, until := range []sim.Time{0, 1500 * sim.Millisecond, 100 * sim.Second, 2200 * sim.Second} {
		for _, c := range cases {
			// Twins: the same rig twice; one is handed the frame, the
			// other is what "unchanged" means.
			r, twin := topicRig(t, until), topicRig(t, until)
			ep, id := c.ep(r)
			if r.nw.Node(id).Endpoint() != ep {
				t.Fatalf("%s is not its node's endpoint", c.who)
			}
			ep.Deliver(&netsim.Message{From: r.users[1].ID(), To: id, Multicast: true, Topic: c.topic,
				Kind: c.packet.Kind.String(), Counted: true, Packet: c.packet,
				Transport: netsim.UDP})
			if got, want := r.digest(), twin.digest(); got != want {
				t.Errorf("at %v the %s acted on a %v it declines:\n got  %s\n want %s", until, c.who, c.packet.Kind, got, want)
			}
			if a, b := r.k.Rand().Int63(), twin.k.Rand().Int63(); a != b {
				t.Errorf("at %v the %s drew randomness on a %v it declines", until, c.who, c.packet.Kind)
			}
		}
	}

	// The probe has teeth: the listeners of the same frames do act.
	r, twin := topicRig(t, 2200*sim.Second), topicRig(t, 2200*sim.Second)
	r.manager.Deliver(&netsim.Message{From: r.users[1].ID(), To: r.manager.ID(), Multicast: true,
		Topic: TopicSearch, Kind: search.Kind.String(), Counted: true, Packet: search})
	r.users[0].Deliver(&netsim.Message{From: r.manager.ID(), To: r.users[0].ID(), Multicast: true,
		Topic: TopicAlive, Kind: alive.Kind.String(), Counted: true, Packet: alive})
	if sent := r.nw.Counters().Sends - twin.nw.Counters().Sends; sent < 2 {
		t.Errorf("a searched Manager and a User hearing a lost Manager's ssdp:alive sent %d frames, want both to answer", sent)
	}
}

// multicastLog records who is handed which multicast frame.
type multicastLog struct{ lines []string }

func (l *multicastLog) MessageSent(sim.Time, *netsim.Message)            {}
func (l *multicastLog) MessageDropped(sim.Time, *netsim.Message, string) {}
func (l *multicastLog) NodeEvent(sim.Time, netsim.NodeID, string)        {}
func (l *multicastLog) MessageDelivered(_ sim.Time, m *netsim.Message) {
	if m.Multicast {
		l.lines = append(l.lines, fmt.Sprintf("%s->%d", m.Kind, m.To))
	}
}

// The declarations match the table above: a Manager hears M-SEARCH and
// not ssdp:alive, a User the reverse, through a Rearm too.
func TestTopicDeclarations(t *testing.T) {
	r := newRig(t, 1, 2, DefaultConfig())
	check := func(how string) {
		var log multicastLog
		r.nw.SetTracer(&log)
		r.users[0].search()
		r.nw.Multicast(r.manager.ID(), DiscoveryGroup, r.manager.announcement(), 1)
		r.k.Run(r.k.Now() + 5*sim.Millisecond)
		slices.Sort(log.lines)
		want := []string{"Announce->1", "Announce->2", "ServiceSearch->0"}
		if !slices.Equal(log.lines, want) {
			t.Errorf("%s: multicast deliveries %v, want %v", how, log.lines, want)
		}
	}
	check("fresh")
	r.k.Reset(1)
	r.nw.Rearm(r.k, netsim.DefaultConfig(), r.nw.Nodes())
	r.manager.Rearm()
	for _, u := range r.users {
		u.Rearm()
	}
	check("rearmed")
}
