package netsim

import (
	"testing"

	"repro/internal/sim"
)

// countingEndpoint swallows deliveries, recording only counts — the
// shape of a real protocol endpoint for alloc measurements.
type countingEndpoint struct{ n int }

func (c *countingEndpoint) Deliver(m *Message) { c.n++ }

// Single-frame unicast allocates nothing in steady state: delivery
// records are pooled, and any payload boxing is the caller's.
func TestUnicastAllocsPerFrame(t *testing.T) {
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	ep := &countingEndpoint{}
	b.SetEndpoint(ep)
	_ = a
	out := Outgoing{Kind: "ping", Counted: false}
	// Warm pools, heap and counter storage.
	for i := 0; i < 64; i++ {
		nw.SendUDP(0, 1, out)
	}
	k.Run(k.Now() + sim.Second)
	allocs := testing.AllocsPerRun(200, func() {
		nw.SendUDP(0, 1, out)
		k.Run(k.Now() + sim.Second)
	})
	if allocs != 0 {
		t.Errorf("unicast frame costs %.1f allocs/op, want 0", allocs)
	}
	if ep.n == 0 {
		t.Fatal("no deliveries — measurement is vacuous")
	}
}

// A TCP request/response allocates nothing in steady state: the
// connection, the reply's transfer record, the frames and the setup and
// retransmission timers are all pooled records behind static callbacks.
// Before the frames were pooled an exchange cost about 25 closures and
// Messages, and before the connections were, 2.
func TestTCPExchangeAllocs(t *testing.T) {
	exchange, replies := newTCPExchangeNet()
	before := replies.n
	allocs := testing.AllocsPerRun(200, exchange)
	if allocs != 0 {
		t.Errorf("TCP request + reply costs %.1f allocs, want 0", allocs)
	}
	if replies.n-before < 200 {
		t.Fatalf("%d replies for 200 exchanges — measurement is vacuous", replies.n-before)
	}
}

// Multicast fan-out allocates nothing in steady state: one pooled fanout
// record, one walking event and the network's radix scratch serve the
// whole group — at 100 members as at the 10,000 of the scale runs.
func TestMulticastFanoutAllocs(t *testing.T) {
	for _, members := range []int{100, 10000} {
		fanoutAllocs(t, "multicast", DefaultConfig(), members)
	}
}

// newFanoutNet builds a network of members nodes, all in Group(1) and all
// delivering to one counting endpoint.
func newFanoutNet(cfg Config, members int) (*sim.Kernel, *Network, *countingEndpoint) {
	k := sim.New(1)
	nw := mustNew(k, cfg)
	ep := &countingEndpoint{}
	for i := 0; i < members; i++ {
		n := nw.AddNode("")
		n.SetEndpoint(ep)
		nw.Join(n.ID, Group(1))
	}
	return k, nw, ep
}

func fanoutAllocs(t *testing.T, what string, cfg Config, members int) {
	t.Helper()
	k, nw, ep := newFanoutNet(cfg, members)
	out := Outgoing{Kind: "announce"}
	for i := 0; i < 8; i++ {
		nw.Multicast(0, Group(1), out, 1)
		k.Run(k.Now() + sim.Second)
	}
	allocs := testing.AllocsPerRun(100, func() {
		nw.Multicast(0, Group(1), out, 1)
		k.Run(k.Now() + sim.Second)
	})
	if allocs != 0 {
		t.Errorf("%s fan-out costs %.1f allocs/copy over %d members, want 0", what, allocs, members)
	}
	if ep.n < members-1 {
		t.Fatalf("fan-out delivered %d, want ≥ %d", ep.n, members-1)
	}
}

// The Gilbert–Elliott-conditioned unicast path allocates nothing either:
// the chains live in a flat per-network array, so the conditioning is
// state lookups, not records.
func TestUnicastAllocsPerFrameGE(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Link.Burst = BurstForAverage(0.2, 8)
	k := sim.New(1)
	nw := mustNew(k, cfg)
	nw.AddNode("a")
	b := nw.AddNode("b")
	ep := &countingEndpoint{}
	b.SetEndpoint(ep)
	out := Outgoing{Kind: "ping"}
	for i := 0; i < 64; i++ {
		nw.SendUDP(0, 1, out)
	}
	k.Run(k.Now() + sim.Second)
	allocs := testing.AllocsPerRun(200, func() {
		nw.SendUDP(0, 1, out)
		k.Run(k.Now() + sim.Second)
	})
	if allocs != 0 {
		t.Errorf("GE-conditioned unicast frame costs %.1f allocs/op, want 0", allocs)
	}
	if ep.n == 0 {
		t.Fatal("no deliveries — measurement is vacuous")
	}
}

// The Pareto-delay multicast fan-out allocates nothing either: draws come
// from the precomputed quantile table, one index per receiver, and the
// wider arrival keys only add radix passes.
func TestMulticastFanoutAllocsPareto(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Link.Delay = DelayConfig{Dist: DelayPareto}
	for _, members := range []int{100, 1000} {
		fanoutAllocs(t, "Pareto", cfg, members)
	}
}

// The map-backed group set keeps O(1) Join/Leave with deterministic
// (swap-remove) ordering, and the no-copy accessor sees the same
// membership as the copying one.
func TestGroupSetSemantics(t *testing.T) {
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	for i := 0; i < 5; i++ {
		nw.AddNode("")
	}
	g := Group(7)
	for i := 0; i < 5; i++ {
		nw.Join(NodeID(i), g)
	}
	nw.Join(2, g) // duplicate join is a no-op
	if got := nw.Members(g); len(got) != 5 {
		t.Fatalf("members = %v, want 5 entries", got)
	}
	nw.Leave(1, g)
	want := []NodeID{0, 4, 2, 3} // swap-remove: last member fills the hole
	got := nw.Members(g)
	if len(got) != len(want) {
		t.Fatalf("members after leave = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members after leave = %v, want %v", got, want)
		}
	}
	// The copying accessor must be detached from live storage.
	got[0] = 99
	if nw.Members(g)[0] != 0 {
		t.Error("Members returned live storage")
	}
	// The internal no-copy accessor sees the same membership.
	live, _ := nw.members(g)
	for i, id := range live {
		if id != want[i] {
			t.Fatalf("members() = %v, want %v", live, want)
		}
	}
	nw.Leave(1, g) // leaving a non-member is a no-op
	if len(nw.Members(g)) != 4 {
		t.Error("Leave of non-member changed membership")
	}
}

// Retire pins a node down, removes it from groups, and recycles its slot
// — ID included — on the next AddNode.
func TestRetireRecyclesSlot(t *testing.T) {
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	nw.Join(b.ID, Group(1))
	ep := &countingEndpoint{}
	b.SetEndpoint(ep)

	nw.Retire(b.ID)
	if !b.Retired() || b.TxUp() || b.RxUp() {
		t.Fatal("retired node still up")
	}
	if len(nw.Members(Group(1))) != 0 {
		t.Fatal("retired node still in group")
	}
	b.SetTx(true) // interface events aimed at a retired slot are ignored
	if b.TxUp() {
		t.Fatal("SetTx revived a retired node")
	}
	// Frames to the retired node drop without delivering.
	nw.SendUDP(a.ID, b.ID, Outgoing{Kind: "x"})
	k.Run(k.Now() + sim.Second)
	if ep.n != 0 {
		t.Fatal("delivery to a retired node")
	}

	c := nw.AddNode("c")
	if c.ID != b.ID {
		t.Fatalf("slot not recycled: new node got ID %d, want %d", c.ID, b.ID)
	}
	if !c.Up() || c.Retired() || c.Name != "c" {
		t.Fatalf("recycled node state wrong: %+v", c)
	}
	if nw.Nodes() != 2 {
		t.Fatalf("node table grew to %d, want 2", nw.Nodes())
	}
	// The recycled slot works like a fresh node.
	ep2 := &countingEndpoint{}
	c.SetEndpoint(ep2)
	nw.SendUDP(a.ID, c.ID, Outgoing{Kind: "y"})
	k.Run(k.Now() + sim.Second)
	if ep2.n != 1 {
		t.Fatal("recycled node did not receive")
	}
}

// Reset must reproduce a fresh network byte-for-byte: same kernel seed,
// same traffic, same counters, whether the network is new or recycled.
func TestNetworkResetDeterminism(t *testing.T) {
	runOnce := func(k *sim.Kernel, nw *Network) (int, int, sim.Time) {
		ep := &countingEndpoint{}
		for i := 0; i < 10; i++ {
			n := nw.AddNode("")
			n.SetEndpoint(ep)
			nw.Join(n.ID, Group(1))
		}
		var last sim.Time
		nw.Node(3).SetEndpoint(EndpointFunc(func(m *Message) { ep.n++; last = k.Now() }))
		for i := 0; i < 20; i++ {
			nw.Multicast(0, Group(1), Outgoing{Kind: "a", Counted: true}, 3)
			nw.SendUDP(1, 2, Outgoing{Kind: "b"})
		}
		k.Run(sim.Minute)
		return ep.n, nw.Counters().Delivered, last
	}
	kA := sim.New(5)
	a1, a2, a3 := runOnce(kA, mustNew(kA, DefaultConfig()))

	kB := sim.New(99)
	nwB := mustNew(kB, DefaultConfig())
	runOnce(kB, nwB) // dirty the network
	kB.Reset(5)
	nwB.Reset(kB, DefaultConfig())
	b1, b2, b3 := runOnce(kB, nwB)

	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("reset run diverged: fresh (%d,%d,%v) vs reused (%d,%d,%v)",
			a1, a2, a3, b1, b2, b3)
	}
}

// A recycled slot must not inherit its predecessor's life: frames in
// flight to the departed tenant drop, and the departed tenant's planned
// interface outage does not apply to the new tenant.
func TestRecycledSlotDoesNotInheritTrafficOrFailures(t *testing.T) {
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	b.SetEndpoint(&countingEndpoint{})

	// Outage planned against the original tenant of slot b.
	nw.ScheduleFailure(InterfaceFailure{Node: b.ID, Mode: FailBoth,
		Start: 10 * sim.Second, Duration: 20 * sim.Second})

	// Frame in flight to b when the slot is retired and recycled.
	nw.SendUDP(a.ID, b.ID, Outgoing{Kind: "stale"})
	nw.Retire(b.ID)
	c := nw.AddNode("c")
	if c.ID != b.ID {
		t.Fatalf("slot not recycled: %d vs %d", c.ID, b.ID)
	}
	ep2 := &countingEndpoint{}
	c.SetEndpoint(ep2)

	k.Run(sim.Second)
	if ep2.n != 0 {
		t.Error("new tenant received the departed tenant's in-flight frame")
	}
	if nw.Counters().Drops != 1 {
		t.Errorf("drops = %d, want 1 (stale frame)", nw.Counters().Drops)
	}

	// The old tenant's outage window passes without touching the new one.
	k.Run(15 * sim.Second)
	if !c.Up() {
		t.Error("new tenant inherited the departed tenant's planned outage")
	}
	k.Run(40 * sim.Second)
	if !c.Up() {
		t.Error("outage recovery event disturbed the new tenant")
	}
	// A fresh frame to the new tenant still delivers.
	nw.SendUDP(a.ID, c.ID, Outgoing{Kind: "fresh"})
	k.Run(41 * sim.Second)
	if ep2.n != 1 {
		t.Errorf("new tenant deliveries = %d, want 1", ep2.n)
	}
}

// A staggered multicast copy pending when the sender's slot is retired
// and recycled must not transmit under the new tenant's identity.
func TestRecycledSenderDropsStaggeredMulticastCopy(t *testing.T) {
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	s := nw.AddNode("sender")
	ep := &countingEndpoint{}
	r := nw.AddNode("recv")
	r.SetEndpoint(ep)
	nw.Join(s.ID, Group(1))
	nw.Join(r.ID, Group(1))

	nw.Multicast(s.ID, Group(1), Outgoing{Kind: "m", Counted: true}, 3)
	sendsBefore := nw.Counters().Sends // copy 1 accounted immediately
	nw.Retire(s.ID)
	s2 := nw.AddNode("tenant")
	if s2.ID != s.ID {
		t.Fatalf("slot not recycled")
	}
	k.Run(sim.Minute)
	// Copies 2 and 3 were pending at retirement: the recycled slot must
	// not have transmitted them (no new accounted sends), and only copy
	// 1 was delivered.
	if got := nw.Counters().Sends; got != sendsBefore {
		t.Errorf("recycled sender transmitted %d pending copies", got-sendsBefore)
	}
	if ep.n != 1 {
		t.Errorf("deliveries = %d, want 1 (first copy only)", ep.n)
	}
}
