package netsim

import (
	"maps"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/wire"
)

// harness wires a kernel, network and a set of endpoint mailboxes.
type harness struct {
	k     *sim.Kernel
	nw    *Network
	nodes []*Node
	inbox [][]*Message
}

func newHarness(t *testing.T, n int, cfg Config) *harness {
	t.Helper()
	h := &harness{k: sim.New(1)}
	h.nw = mustNew(h.k, cfg)
	h.inbox = make([][]*Message, n)
	for i := 0; i < n; i++ {
		i := i
		node := h.nw.AddNode("")
		node.SetEndpoint(EndpointFunc(func(m *Message) {
			// Delivered messages are pooled and recycled after Deliver
			// returns; retain a copy, as real endpoints retain payloads.
			cp := *m
			h.inbox[i] = append(h.inbox[i], &cp)
		}))
		h.nodes = append(h.nodes, node)
	}
	return h
}

func TestUDPDelivery(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.nw.SendUDP(0, 1, Outgoing{Kind: "ping", Counted: true, Packet: wire.Packet{N: 42}})
	h.k.Run(sim.Second)
	if len(h.inbox[1]) != 1 {
		t.Fatalf("receiver got %d messages, want 1", len(h.inbox[1]))
	}
	m := h.inbox[1][0]
	if m.Packet.N != 42 || m.Kind != "ping" || m.From != 0 {
		t.Errorf("bad message: %+v", m)
	}
	if c := h.nw.Counters(); c.DiscoverySends != 1 || c.Delivered != 1 || c.Counted() != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestUDPDelayWithinBounds(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	var deliveredAt sim.Time
	h.nodes[1].SetEndpoint(EndpointFunc(func(m *Message) { deliveredAt = h.k.Now() }))
	h.nw.SendUDP(0, 1, Outgoing{Kind: "x"})
	h.k.Run(sim.Second)
	if deliveredAt < 10*sim.Microsecond || deliveredAt > 100*sim.Microsecond {
		t.Errorf("delivered at %v, want within [10µs,100µs]", deliveredAt)
	}
}

func TestUDPDroppedWhenTxDown(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[0].SetTx(false)
	h.nw.SendUDP(0, 1, Outgoing{Kind: "x", Counted: true})
	h.k.Run(sim.Second)
	if len(h.inbox[1]) != 0 {
		t.Error("message delivered despite Tx down")
	}
	// The attempt still counts as update effort: the device spent the send.
	if h.nw.Counters().Counted() != 1 {
		t.Errorf("counted = %d, want 1", h.nw.Counters().Counted())
	}
	if h.nw.Counters().Drops != 1 {
		t.Errorf("drops = %d, want 1", h.nw.Counters().Drops)
	}
}

func TestUDPDroppedWhenRxDownAtArrival(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[1].SetRx(false)
	h.nw.SendUDP(0, 1, Outgoing{Kind: "x"})
	h.k.Run(sim.Second)
	if len(h.inbox[1]) != 0 {
		t.Error("message delivered despite Rx down")
	}
}

func TestUDPRxOnlyFailureStillSends(t *testing.T) {
	// A node whose receiver failed can still transmit (§5 Step 2).
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[0].SetRx(false)
	h.nw.SendUDP(0, 1, Outgoing{Kind: "x"})
	h.k.Run(sim.Second)
	if len(h.inbox[1]) != 1 {
		t.Error("Rx failure blocked transmission")
	}
}

func TestMulticastFanOutAndRedundancy(t *testing.T) {
	h := newHarness(t, 4, DefaultConfig())
	g := Group(1)
	for i := 0; i < 4; i++ {
		h.nw.Join(NodeID(i), g)
	}
	h.nw.Multicast(0, g, Outgoing{Kind: "announce", Counted: true}, 6)
	h.k.Run(sim.Second)
	for i := 1; i < 4; i++ {
		if len(h.inbox[i]) != 6 {
			t.Errorf("member %d received %d copies, want 6", i, len(h.inbox[i]))
		}
	}
	if len(h.inbox[0]) != 0 {
		t.Error("sender received its own multicast")
	}
	// 6 wire transmissions, regardless of group size.
	if got := h.nw.Counters().Counted(); got != 6 {
		t.Errorf("counted sends = %d, want 6", got)
	}
}

func TestMulticastLeave(t *testing.T) {
	h := newHarness(t, 3, DefaultConfig())
	g := Group(1)
	for i := 0; i < 3; i++ {
		h.nw.Join(NodeID(i), g)
	}
	h.nw.groups[g].remove(2)
	h.nw.Multicast(0, g, Outgoing{Kind: "a"}, 1)
	h.k.Run(sim.Second)
	if len(h.inbox[1]) != 1 || len(h.inbox[2]) != 0 {
		t.Errorf("membership not respected: %d/%d", len(h.inbox[1]), len(h.inbox[2]))
	}
}

func TestMessageLossModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Loss = 0.5
	h := newHarness(t, 2, cfg)
	const n = 2000
	for i := 0; i < n; i++ {
		h.nw.SendUDP(0, 1, Outgoing{Kind: "x"})
	}
	h.k.Run(sim.Second)
	got := len(h.inbox[1])
	if got < n*4/10 || got > n*6/10 {
		t.Errorf("with 50%% loss %d/%d delivered, want ~50%%", got, n)
	}
}

func TestInterfaceChangeCallback(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig())
	var transitions []string
	h.nodes[0].OnInterfaceChange(func(tx, rx bool) {
		transitions = append(transitions, ifaceEvent("tx", tx)+"/"+ifaceEvent("rx", rx))
	})
	h.nodes[0].SetTx(false)
	h.nodes[0].SetTx(false) // no-op, no callback
	h.nodes[0].SetRx(false)
	h.nodes[0].SetTx(true)
	if len(transitions) != 3 {
		t.Errorf("got %d transitions, want 3: %v", len(transitions), transitions)
	}
	if h.nodes[0].slot().txUp && h.nodes[0].slot().rxUp {
		t.Error("node reports Up with Rx down")
	}
}

func TestCountedInWindow(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	for i := 1; i <= 5; i++ {
		at := sim.Duration(i) * sim.Second
		h.k.At(at, func() { h.nw.SendUDP(0, 1, Outgoing{Kind: "x", Counted: true}) })
	}
	h.k.Run(10 * sim.Second)
	c := h.nw.Counters()
	if got := c.CountedInWindow(2*sim.Second, 4*sim.Second); got != 3 {
		t.Errorf("window [2s,4s] = %d, want 3", got)
	}
	if got := c.CountedInWindow(0, 10*sim.Second); got != 5 {
		t.Errorf("window [0,10s] = %d, want 5", got)
	}
	if got := c.CountedInWindow(6*sim.Second, 10*sim.Second); got != 0 {
		t.Errorf("window [6s,10s] = %d, want 0", got)
	}
	if got := c.CountedInWindow(4*sim.Second, 2*sim.Second); got != 0 {
		t.Errorf("inverted window = %d, want 0", got)
	}
}

// TestPerKindCountsPacketsAndNamedFrames: PerKind names a packet's send
// by its kind and a packetless frame by its raw name, adds the two when
// they share a name, leaves out kinds never sent, and starts empty after
// a reset.
func TestPerKindCountsPacketsAndNamedFrames(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.nw.SendUDP(0, 1, Outgoing{Packet: wire.Packet{Kind: wire.Get}})
	h.nw.SendUDP(0, 1, Outgoing{Packet: wire.Packet{Kind: wire.Get}})
	h.nw.SendUDP(0, 1, Outgoing{Packet: wire.Packet{Kind: wire.Update}})
	h.nw.SendUDP(0, 1, Outgoing{Kind: "ping"})
	h.nw.SendUDP(0, 1, Outgoing{Kind: "Get"})
	h.k.Run(sim.Second)
	want := map[string]int{"Get": 3, "ServiceUpdate": 1, "ping": 1}
	if got := h.nw.Counters().PerKind(); !maps.Equal(got, want) {
		t.Errorf("PerKind() = %v, want %v", got, want)
	}
	h.nw.Counters().reset()
	if got := h.nw.Counters().PerKind(); len(got) != 0 {
		t.Errorf("PerKind() after reset = %v, want empty", got)
	}
}

func TestRecorderNodeEvents(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig())
	h.nodes[0].Name = "Manager"
	rec := NewRecorder(h.nw)
	h.nw.SetTracer(rec)
	h.k.At(381*sim.Second, func() { h.nodes[0].SetTx(false) })
	h.k.At(1191*sim.Second, func() { h.nodes[0].SetTx(true) })
	h.k.Run(2000 * sim.Second)
	if len(rec.Lines()) != 2 {
		t.Fatalf("got %d lines: %v", len(rec.Lines()), rec.Lines())
	}
	if want := "Manager Tx down"; !contains(rec.Lines()[0], want) {
		t.Errorf("line %q does not contain %q", rec.Lines()[0], want)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// Property: the failure planner always produces outages inside the window
// with the exact λ-proportional duration, and never fails a node twice.
func TestQuickFailurePlanInvariants(t *testing.T) {
	f := func(seed int64, lambdaPct uint8, nNodes uint8) bool {
		lambda := float64(lambdaPct%91) / 100
		n := int(nNodes%10) + 1
		k := sim.New(seed)
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = NodeID(i)
		}
		cfg := FailurePlanConfig{Lambda: lambda, WindowStart: 100 * sim.Second, WindowEnd: 5400 * sim.Second, RunDuration: 5400 * sim.Second}
		plan := PlanInterfaceFailures(k, ids, cfg)
		if lambda == 0 {
			return len(plan) == 0
		}
		if len(plan) != n {
			return false
		}
		seen := map[NodeID]bool{}
		for _, f := range plan {
			if seen[f.Node] {
				return false
			}
			seen[f.Node] = true
			if f.Start < cfg.WindowStart || f.Start > cfg.WindowEnd {
				return false
			}
			if f.Duration != sim.Duration(lambda*float64(cfg.RunDuration)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScheduleFailureTogglesInterfaces(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig())
	f := InterfaceFailure{Node: 0, Mode: FailBoth, Start: 10 * sim.Second, Duration: 20 * sim.Second}
	h.nw.ScheduleFailure(f)
	var during, after bool
	h.k.At(15*sim.Second, func() { during = h.nodes[0].slot().txUp && h.nodes[0].slot().rxUp })
	h.k.At(35*sim.Second, func() { after = h.nodes[0].slot().txUp && h.nodes[0].slot().rxUp })
	h.k.Run(40 * sim.Second)
	if during {
		t.Error("node up during failure")
	}
	if !after {
		t.Error("node not recovered after failure")
	}
}

func TestFailModeTxOnly(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig())
	h.nw.ScheduleFailure(InterfaceFailure{Node: 0, Mode: FailTx, Start: sim.Second, Duration: sim.Second})
	h.k.At(1500*sim.Millisecond, func() {
		if h.nodes[0].slot().txUp {
			t.Error("Tx up during Tx failure")
		}
		if !h.nodes[0].slot().rxUp {
			t.Error("Rx down during Tx-only failure")
		}
	})
	h.k.Run(3 * sim.Second)
}
