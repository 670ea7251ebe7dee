package jini

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

// digest renders what a delivery can change in a lookup service short of
// sending, scheduling or drawing: every table with its expiries (a
// renewal moves a deadline without changing Kernel.Pending) and event
// sequence numbers.
func (r *Registry) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "registry%d{announcing=%v", r.ID(), r.announcer.Running())
	r.registrations.Each(func(m netsim.NodeID, rec discovery.ServiceRecord) {
		at, _ := r.registrations.Expiry(m)
		fmt.Fprintf(&b, " reg[%d]=v%d@%d", m, rec.SD.Version(), at)
	})
	r.subs.Each(func(k subKey, s *subState) {
		at, _ := r.subs.Expiry(k)
		fmt.Fprintf(&b, " sub[%v]#%d@%d", k, s.seq, at)
	})
	r.notifyReqs.EachKey(func(u netsim.NodeID) {
		at, _ := r.notifyReqs.Expiry(u)
		fmt.Fprintf(&b, " notify[%d]@%d", u, at)
	})
	b.WriteString("}")
	return b.String()
}

func (r *rig) registryDigest() string {
	var b strings.Builder
	for _, reg := range r.registries {
		b.WriteString(reg.digest())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "sends=%d pending=%d", r.nw.Counters().Sends, r.k.Pending())
	return b.String()
}

// Jini's one topic is the Registry announcement, and the one endpoint
// type that declines it is the Registry: handed a peer's announcement
// anyway — unbooted, booting, or serving registrations, subscriptions
// and notification requests — it sends nothing, schedules nothing, draws
// nothing and changes no table. Otherwise a lookup service that starts
// acting on its peers (federation, say) would stay silently scoped out.
func TestDeclinedTopicsAreNoOps(t *testing.T) {
	announce := wire.Packet{Kind: wire.Announce, Role: wire.RoleRegistry, Lease: cacheLease}
	for _, until := range []sim.Time{0, 1500 * sim.Millisecond, 200 * sim.Second} {
		// Twins: the same rig twice; one Registry is handed the frame,
		// the other rig is what "unchanged" means.
		r, twin := newRig(t, 11, 2, 2, DefaultConfig()), newRig(t, 11, 2, 2, DefaultConfig())
		r.k.Run(until)
		twin.k.Run(until)
		reg, peer := r.registries[0], r.registries[1]
		if reg.node.Endpoint() != netsim.Endpoint(reg) {
			t.Fatal("the Registry is not its node's endpoint")
		}
		reg.Deliver(&netsim.Message{From: peer.ID(), To: reg.ID(), Multicast: true, Topic: TopicAnnounce,
			Kind: announce.Kind.String(), Counted: true, Packet: announce,
			Transport: netsim.UDP})
		if got, want := r.registryDigest(), twin.registryDigest(); got != want {
			t.Errorf("at %v a Registry acted on a peer's announcement:\n got  %s\n want %s", until, got, want)
		}
		if a, b := r.k.Rand().Int63(), twin.k.Rand().Int63(); a != b {
			t.Errorf("at %v a Registry drew randomness on a peer's announcement", until)
		}
		if until == 200*sim.Second && !strings.Contains(r.registryDigest(), "sub[") {
			t.Errorf("the settled Registries hold no subscription to disturb: %s", r.registryDigest())
		}
	}
}

// multicastLog records who is handed which multicast frame.
type multicastLog struct{ lines []string }

func (l *multicastLog) MessageSent(sim.Time, *netsim.Message)            {}
func (l *multicastLog) MessageDropped(sim.Time, *netsim.Message, string) {}
func (l *multicastLog) NodeEvent(sim.Time, netsim.NodeID, string)        {}
func (l *multicastLog) MessageDelivered(_ sim.Time, m *netsim.Message) {
	if m.Multicast {
		l.lines = append(l.lines, fmt.Sprintf("%d->%d", m.From, m.To))
	}
}

// A Registry's announcement reaches the Manager and the Users and no
// other Registry — which stays a member, so the per-member draws are
// made for it — through a Rearm too.
func TestTopicDeclarations(t *testing.T) {
	r := newRig(t, 1, 2, 2, DefaultConfig())
	check := func(how string) {
		var log multicastLog
		r.nw.SetTracer(&log)
		r.registries[0].announcer.AnnounceNow()
		r.k.Run(r.k.Now() + 50*sim.Millisecond) // six staggered copies
		slices.Sort(log.lines)
		log.lines = slices.Compact(log.lines)
		if want := []string{"0->2", "0->3", "0->4"}; !slices.Equal(log.lines, want) {
			t.Errorf("%s: Registry 0's announcement was handed to %v, want %v", how, log.lines, want)
		}
		if got := len(r.nw.Members(DiscoveryGroup)); got != 5 {
			t.Errorf("%s: the discovery group has %d members, want all 5 nodes", how, got)
		}
	}
	check("fresh")
	r.k.Reset(1)
	r.nw.Rearm(r.k, netsim.DefaultConfig(), r.nw.Nodes())
	for _, reg := range r.registries {
		reg.Rearm()
	}
	r.manager.Rearm()
	for _, u := range r.users {
		u.Rearm()
	}
	check("rearmed")
}
