package netsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// hearing attaches an endpoint that logs "id@instant" for every frame the
// node is handed.
func hearing(k *sim.Kernel, n *Node, log *[]string) {
	n.SetEndpoint(EndpointFunc(func(m *Message) {
		*log = append(*log, fmt.Sprintf("%d@%d", m.To, k.Now()))
	}))
}

// heardBy runs the kernel and reports, sorted, which nodes a log names.
func heardBy(k *sim.Kernel, log *[]string) []int {
	k.Run(k.Now() + sim.Second)
	var ids []int
	for _, l := range *log {
		var id int
		var at int64
		fmt.Sscanf(l, "%d@%d", &id, &at)
		ids = append(ids, id)
	}
	*log = nil
	slices.Sort(ids)
	return ids
}

// An unscoped frame reaches every member whatever it declared; a scoped
// one reaches the members that declared its topic and those that joined
// plainly.
func TestTopicScopesFanout(t *testing.T) {
	const g = Group(3)
	k := sim.New(7)
	nw := mustNew(k, DefaultConfig())
	var log []string
	sender := nw.AddNode("sender")
	decls := []TopicSet{Topics(), Topics(1), Topics(2), Topics(1, 2), AllTopics}
	for i, d := range decls {
		n := nw.AddNode(fmt.Sprintf("m%d", i))
		hearing(k, n, &log)
		if d == AllTopics {
			nw.Join(n.ID, g)
		} else {
			nw.JoinTopics(n.ID, g, d)
		}
	}
	for _, c := range []struct {
		topic Topic
		want  []int
	}{
		{0, []int{1, 2, 3, 4, 5}},
		{1, []int{2, 4, 5}},
		{2, []int{3, 4, 5}},
		{3, []int{5}},
		{MaxTopics - 1, []int{5}},
	} {
		before := *nw.Counters()
		nw.Multicast(sender.ID, g, Outgoing{Kind: "x", Topic: c.topic}, 1)
		if got := heardBy(k, &log); !slices.Equal(got, c.want) {
			t.Errorf("topic %d heard by %v, want %v", c.topic, got, c.want)
		}
		// A frame exists only for listeners: one send, one delivery per
		// listener, nothing dropped for the rest.
		after := nw.Counters()
		if after.Sends-before.Sends != 1 || after.Delivered-before.Delivered != len(c.want) || after.Drops != before.Drops {
			t.Errorf("topic %d: sends +%d, delivered +%d, drops +%d; want 1, %d, 0", c.topic,
				after.Sends-before.Sends, after.Delivered-before.Delivered, after.Drops-before.Drops, len(c.want))
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("a topic id of MaxTopics did not panic")
		}
	}()
	nw.Multicast(sender.ID, g, Outgoing{Kind: "x", Topic: MaxTopics}, 1)
}

// Re-declaring changes what a member hears and keeps its place in the
// membership order (the order the per-member draws are made in); a plain
// Join on a scoped member widens it back to everything.
func TestJoinTopicsRedeclares(t *testing.T) {
	const g = Group(1)
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	var log []string
	sender := nw.AddNode("sender")
	a, b := nw.AddNode("a"), nw.AddNode("b")
	hearing(k, a, &log)
	hearing(k, b, &log)
	nw.JoinTopics(a.ID, g, Topics())
	nw.JoinTopics(b.ID, g, Topics(1))
	send := func() []int {
		nw.Multicast(sender.ID, g, Outgoing{Kind: "x", Topic: 1}, 1)
		return heardBy(k, &log)
	}
	if got := send(); !slices.Equal(got, []int{2}) {
		t.Fatalf("heard by %v, want only b", got)
	}
	nw.JoinTopics(a.ID, g, Topics(1))
	nw.JoinTopics(b.ID, g, Topics())
	if got := send(); !slices.Equal(got, []int{1}) {
		t.Fatalf("after re-declaring heard by %v, want only a", got)
	}
	nw.Join(b.ID, g)
	if got := send(); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("after a plain Join heard by %v, want both", got)
	}
	if got := nw.Members(g); !slices.Equal(got, []NodeID{a.ID, b.ID}) {
		t.Fatalf("membership order %v changed by re-declaring", got)
	}
}

// A declaration ends with the membership: a recycled slot's tenant, a
// member that left and rejoined, and every member after Reset or Rearm
// hear what they themselves declare, never what the predecessor did.
func TestTopicDeclarationEndsWithMembership(t *testing.T) {
	const g = Group(1)
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	var log []string
	sender := nw.AddNode("sender")
	old := nw.AddNode("old")
	keep := nw.AddNode("keep")
	hearing(k, keep, &log)
	nw.JoinTopics(old.ID, g, Topics(1))
	nw.JoinTopics(keep.ID, g, Topics(2))
	send := func(topic Topic) []int {
		nw.Multicast(sender.ID, g, Outgoing{Kind: "x", Topic: topic}, 1)
		return heardBy(k, &log)
	}

	nw.Retire(old.ID)
	tenant := nw.AddNode("tenant")
	if tenant.ID != old.ID {
		t.Fatalf("slot not recycled: got ID %d, want %d", tenant.ID, old.ID)
	}
	hearing(k, tenant, &log)
	if got := send(1); len(got) != 0 {
		t.Errorf("a tenant that never joined heard topic 1: %v", got)
	}
	nw.JoinTopics(tenant.ID, g, Topics(2))
	if got := send(1); len(got) != 0 {
		t.Errorf("the tenant inherited its predecessor's topic 1: %v", got)
	}
	if got := send(2); !slices.Equal(got, []int{int(tenant.ID), int(keep.ID)}) {
		t.Errorf("topic 2 heard by %v, want the tenant and keep", got)
	}

	nw.groups[g].remove(keep.ID)
	nw.JoinTopics(keep.ID, g, Topics(1))
	if got := send(2); !slices.Equal(got, []int{int(tenant.ID)}) {
		t.Errorf("after leave+rejoin topic 2 heard by %v, want the tenant only", got)
	}

	for _, how := range []string{"Rearm", "Reset"} {
		k.Reset(1)
		if how == "Rearm" {
			nw.Rearm(k, DefaultConfig(), nw.Nodes())
			hearing(k, nw.Node(tenant.ID), &log)
		} else {
			nw.Reset(k, DefaultConfig())
			nw.AddNode("sender")
			hearing(k, nw.AddNode("tenant"), &log)
		}
		if got := nw.Members(g); len(got) != 0 {
			t.Fatalf("%s kept members %v", how, got)
		}
		nw.JoinTopics(tenant.ID, g, Topics(3))
		if got := send(2); len(got) != 0 {
			t.Errorf("%s kept the declaration of topic 2: heard by %v", how, got)
		}
		if got := send(3); !slices.Equal(got, []int{int(tenant.ID)}) {
			t.Errorf("after %s topic 3 heard by %v, want the tenant", how, got)
		}
	}
}

// scopedWorld is a 60-member group on a lossy, bursty, reordering link —
// every draw the fan-out can make — where every third member listens for
// topic 1 (or, as the reference, everyone does).
func scopedWorld(seed int64, everyone bool, log *[]string) (*sim.Kernel, *Network) {
	cfg := DefaultConfig()
	cfg.Link.Burst = BurstConfig{GoodToBad: 0.1, BadToGood: 0.3, GoodLoss: 0.05, BadLoss: 0.6}
	cfg.Link.Reorder = ReorderConfig{Prob: 0.2, Extra: 50 * sim.Microsecond}
	k := sim.New(seed)
	nw := mustNew(k, cfg)
	nw.AddNode("sender")
	for i := 1; i <= 60; i++ {
		n := nw.AddNode("")
		if i%3 == 0 {
			hearing(k, n, log)
		} else {
			n.SetEndpoint(EndpointFunc(func(*Message) {}))
		}
		if everyone || i%3 == 0 {
			nw.Join(n.ID, Group(1))
		} else {
			nw.JoinTopics(n.ID, Group(1), Topics(2))
		}
	}
	return k, nw
}

// The sample-path anchor: scoping a frame away from two thirds of the
// group leaves the listeners' arrivals, the loss chains and the kernel's
// random stream exactly where the everyone-listens fan-out puts them,
// through a partition and a dead transmitter too.
func TestScopedFanoutKeepsSamplePath(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		var refLog, gotLog []string
		kRef, ref := scopedWorld(seed, true, &refLog)
		kGot, got := scopedWorld(seed, false, &gotLog)
		for _, w := range []struct {
			k  *sim.Kernel
			nw *Network
		}{{kRef, ref}, {kGot, got}} {
			w.nw.SchedulePartition(Partition{Start: 2 * sim.Second, Duration: sim.Second, Bisect: true})
			for i := 0; i < 40; i++ {
				at := sim.Time(i) * 100 * sim.Millisecond
				w.k.At(at, func() { w.nw.Multicast(0, Group(1), Outgoing{Kind: "x", Topic: 1}, 3) })
			}
			w.k.At(1500*sim.Millisecond, func() { w.nw.Node(0).SetTx(false) })
			w.k.At(1700*sim.Millisecond, func() { w.nw.Node(0).SetTx(true) })
			w.k.Run(10 * sim.Second)
		}
		if !slices.Equal(gotLog, refLog) {
			t.Fatalf("seed %d: listeners heard %d frames scoped, %d with everyone listening, or at other instants",
				seed, len(gotLog), len(refLog))
		}
		if a, b := kGot.Rand().Int63(), kRef.Rand().Int63(); a != b {
			t.Fatalf("seed %d: the random stream moved: next draw %d, reference %d", seed, a, b)
		}
		if !slices.Equal(got.geState, ref.geState) {
			t.Fatalf("seed %d: burst-loss chains differ", seed)
		}
		// 20 of 60 members listen: the scoped run accounts a third of the
		// reference's frames, and the same sends.
		gc, rc := got.Counters(), ref.Counters()
		if gc.Sends != rc.Sends || gc.Delivered != len(gotLog) || gc.Delivered+gc.Drops >= rc.Delivered+rc.Drops {
			t.Fatalf("seed %d: scoped %+v vs reference %+v", seed, gc, rc)
		}
		if gc.Drops == 0 || len(gotLog) == 0 {
			t.Fatalf("seed %d: the scenario lost or delivered nothing (drops %d, delivered %d)", seed, gc.Drops, len(gotLog))
		}
	}
}
