package frodo

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The frames each topic carries, as the senders build them. The Search
// matches the rigs' printer, the candidacy outbids every power in them,
// and the senders' IDs are real: a handler that acted on any of these
// would have something to do.
var topicFrames = map[netsim.Topic][]wire.Packet{
	TopicSearch:   {{Kind: wire.Search, Q: &discovery.Query{ServiceType: "ColorPrinter"}}},
	TopicElection: {{Kind: wire.ElectionAnnounce, N: 1000}},
	TopicPresence: {
		{Kind: wire.Announce, Role: wire.RoleUser, N: 1},
		{Kind: wire.Announce, Role: wire.RoleManager, N: 5},
	},
}

// lease renders a deadline as "-" or its expiry.
func lease(d *sim.Deadline) string {
	if d.When() == 0 {
		return "-"
	}
	return fmt.Sprint(d.When())
}

// digest renders everything a delivery can change in a device short of
// sending, scheduling or drawing (which the kernel and the counters
// show): Central belief and lease, election state, and the roles' tables
// with their expiries — a renewal moves a deadline without changing
// Kernel.Pending.
func (nd *Node) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v central=%d/%d lease=%s started=%v presence=%v running=%v/%v best=%+v window=%s wait=%s",
		nd, nd.central, nd.centralPower, lease(&nd.centralLease), nd.started,
		nd.nodeAnnounce.Running(), nd.running, nd.rec.running, nd.rec.best, lease(&nd.electWindow), lease(&nd.electWait))
	if nd.class == Class300D {
		// Only a Central reads the Backup pick, and only a 300D node can
		// become one; on a 3C/3D node it is dead state.
		fmt.Fprintf(&b, " pick=%+v", nd.rec.pick)
	}
	if r := nd.registry; r != nil {
		fmt.Fprintf(&b, " registry{active=%v backup=%v/%d monitor=%s announcing=%v subs=%d",
			r.active, r.backup, r.backupID, lease(&r.backupMonitor), r.announcer.Running(), r.subs.Len())
		r.registrations.Each(func(m netsim.NodeID, rec discovery.ServiceRecord) {
			at, _ := r.registrations.Expiry(m)
			fmt.Fprintf(&b, " reg[%d]=v%d@%d", m, rec.SD.Version(), at)
		})
		r.interests.EachKey(func(u netsim.NodeID) {
			at, _ := r.interests.Expiry(u)
			fmt.Fprintf(&b, " interest[%d]@%d", u, at)
		})
		b.WriteString("}")
	}
	if m := nd.manager; m != nil {
		fmt.Fprintf(&b, " manager{registered=%v at=%d v%d acked=%d renewing=%v",
			m.registered, m.regCentral, m.sd.Version(), m.centralAcked, m.renewTick.Running())
		m.subs.EachKey(func(u netsim.NodeID) {
			at, _ := m.subs.Expiry(u)
			fmt.Fprintf(&b, " sub[%d]@%d", u, at)
		})
		b.WriteString("}")
	}
	if u := nd.user; u != nil {
		fmt.Fprintf(&b, " user{lessee=%d mgr=%d active=%v searching=%v/%d renewing=%v interest=%v",
			u.lessee, u.subMgr, u.subActive, u.searchTick.Running(), u.searchesLeft,
			u.renewTick.Running(), u.interestTick.Running())
		u.cache.Each(func(m netsim.NodeID, rec discovery.ServiceRecord) {
			at, _ := u.cache.Expiry(m)
			fmt.Fprintf(&b, " cache[%d]=v%d@%d", m, rec.SD.Version(), at)
		})
		b.WriteString("}")
	}
	return b.String()
}

// topicWorld is a paper rig plus a 3C Manager, so the two of them hold
// every (class, roles) combination a FRODO device comes in.
type topicWorld struct {
	*rig
	nodes []*Node
}

// The moments a device is probed at: built but not booted, mid-election,
// settled behind a Central, and searching again after the Central and its
// Backup went silent for longer than every lease on them.
var topicMoments = []struct {
	name string
	at   sim.Time
}{
	{"built", 0},
	{"electing", 2500 * sim.Millisecond},
	{"settled", 200 * sim.Second},
	{"central lost", 3600 * sim.Second},
}

func newTopicWorld(t *testing.T, twoParty bool, until sim.Time) *topicWorld {
	cfg := DefaultConfig()
	if twoParty {
		cfg = TwoPartyConfig()
	}
	w := &topicWorld{rig: newRig(t, 11, twoParty, 2, cfg)}
	cent := NewNode(w.nw.AddNode("Cent"), &cfg, Class3C, 5)
	cent.AttachManager(printerSD())
	cent.Start(2200 * sim.Millisecond)
	w.nodes = append([]*Node{w.registryNode, w.managerNode, cent}, w.userNodes...)
	if w.backupNode != nil {
		w.nodes = append(w.nodes, w.backupNode)
	}
	if until > 200*sim.Second {
		w.k.At(200*sim.Second, func() {
			for _, nd := range w.nodes {
				if nd.IsCentral() || nd.IsBackup() {
					nd.n.SetTx(false)
					nd.n.SetRx(false)
				}
			}
		})
	}
	w.k.Run(until)
	return w
}

func (w *topicWorld) digest() string {
	var b strings.Builder
	for _, nd := range w.nodes {
		b.WriteString(nd.digest())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "sends=%d pending=%d", w.nw.Counters().Sends, w.k.Pending())
	return b.String()
}

// A device that declines a topic must be deaf to it in fact: handing it
// such a frame anyway sends nothing, schedules nothing, draws nothing and
// leaves every table, lease and belief where it was — at every moment of
// its life. Otherwise a handler that starts acting on a kind would stay
// silently scoped out of the frames that carry it.
func TestDeclinedTopicsAreNoOps(t *testing.T) {
	probed := map[string]bool{}
	for _, twoParty := range []bool{false, true} {
		built := newTopicWorld(t, twoParty, 0).nodes
		nNodes := len(built)
		for _, moment := range topicMoments {
			for i := 0; i < nNodes; i++ {
				for topic, frames := range topicFrames {
					if t := netsim.Topics(topic); built[i].topics()&t == t {
						continue // it listens: acting is its job
					}
					for _, p := range frames {
						// Twins: the same world twice; one is handed the
						// frame, the other is what "unchanged" means.
						w, twin := newTopicWorld(t, twoParty, moment.at), newTopicWorld(t, twoParty, moment.at)
						nd := w.nodes[i]
						kind := fmt.Sprintf("%v roles=%v/%v", nd.class, nd.manager != nil, nd.user != nil)
						probed[fmt.Sprintf("%s declines topic %d", kind, topic)] = true
						from := w.nodes[(i+1)%nNodes].ID()
						nd.Deliver(&netsim.Message{From: from, To: nd.ID(), Multicast: true, Topic: topic,
							Kind: p.Kind.String(), Counted: true, Packet: p,
							Transport: netsim.UDP})
						if got, want := w.digest(), twin.digest(); got != want {
							t.Errorf("2-party=%v, %s: %s acted on a %v it declines:\n got  %s\n want %s",
								twoParty, moment.name, kind, p.Kind, got, want)
						}
						if a, b := w.k.Rand().Int63(), twin.k.Rand().Int63(); a != b {
							t.Errorf("2-party=%v, %s: %s drew randomness on a %v it declines",
								twoParty, moment.name, kind, p.Kind)
						}
					}
				}
			}
		}
	}
	// Every (class, roles) kind that declines anything was probed.
	for _, want := range []string{
		"300D roles=false/false declines topic 1", "300D roles=false/true declines topic 1",
		"3D roles=true/false declines topic 2", "3D roles=true/false declines topic 3",
		"3D roles=false/true declines topic 1", "3D roles=false/true declines topic 2", "3D roles=false/true declines topic 3",
		"3C roles=true/false declines topic 2", "3C roles=true/false declines topic 3",
	} {
		if !probed[want] {
			t.Errorf("never probed: %s (probed %v)", want, probed)
		}
	}
}

// The probe has teeth: the same frames do move a device that listens.
func TestListenedTopicsAct(t *testing.T) {
	for topic, frames := range topicFrames {
		w, twin := newTopicWorld(t, true, 2500*sim.Millisecond), newTopicWorld(t, true, 2500*sim.Millisecond)
		nd := w.managerNode // 300D with a Manager role: listens to all three
		if topic == TopicPresence {
			nd = w.registryNode
			w.k.Run(200 * sim.Second) // a sitting Central answers presence
			twin.k.Run(200 * sim.Second)
		}
		nd.Deliver(&netsim.Message{From: w.userNodes[0].ID(), To: nd.ID(), Multicast: true, Topic: topic,
			Kind: frames[0].Kind.String(), Counted: true, Packet: frames[0], Transport: netsim.UDP})
		if w.digest() == twin.digest() {
			t.Errorf("a listening %v did nothing with a %v", nd, frames[0].Kind)
		}
	}
}

// Attaching the Manager role after the device bound itself to the group
// re-declares: from then on it is handed multicast searches, and it still
// is after a Rearm.
func TestAttachManagerStartsListeningForSearches(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	cfg := DefaultConfig()
	nd := NewNode(nw.AddNode("late"), &cfg, Class3D, 5)
	asker := nw.AddNode("asker")
	replies := 0
	asker.SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
		if m.Packet.Kind == wire.SearchReply {
			replies++
		}
	}))
	search := func() int {
		replies = 0
		nw.Multicast(asker.ID, DiscoveryGroup, netsim.Outgoing{Counted: true, Topic: TopicSearch,
			Packet: wire.Packet{Kind: wire.Search, Q: &discovery.Query{ServiceType: "ColorPrinter"}}}, 1)
		k.Run(k.Now() + sim.Second)
		return replies
	}
	if delivered := nw.Counters().Delivered; search() != 0 || nw.Counters().Delivered != delivered {
		t.Fatal("a device without a Manager role was handed a multicast search")
	}
	nd.AttachManager(printerSD())
	if search() != 1 {
		t.Fatal("the Manager attached after bind did not answer a multicast search")
	}
	k.Reset(1)
	nw.Rearm(k, netsim.DefaultConfig(), nw.Nodes())
	nd.Rearm()
	nw.Node(asker.ID).SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
		if m.Packet.Kind == wire.SearchReply {
			replies++
		}
	}))
	if search() != 1 {
		t.Fatal("the rearmed Manager did not answer a multicast search")
	}
}
