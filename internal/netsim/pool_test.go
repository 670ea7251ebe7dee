package netsim

import (
	"testing"

	"repro/internal/sim"
)

// inUse reports how many of the records a pool made are off its free
// stack, and fails the test if a record is listed free twice.
func inUse[T any, P interface {
	*T
	recycle()
}](t *testing.T, name string, p *pool[T, P]) int {
	t.Helper()
	seen := make(map[P]bool, len(p.free))
	for _, r := range p.free {
		if seen[r] {
			t.Errorf("a %s record is pooled twice", name)
		}
		seen[r] = true
	}
	made := 0
	for _, c := range p.chunks {
		made += len(c)
	}
	return made - len(seen)
}

func recordsInUse(t *testing.T, nw *Network) map[string]int {
	t.Helper()
	return map[string]int{
		"delivery":  inUse(t, "delivery", &nw.deliveries),
		"fanout":    inUse(t, "fanout", &nw.fanouts),
		"mcopy":     inUse(t, "mcopy", &nw.mcopies),
		"conn":      inUse(t, "conn", &nw.conns),
		"transfer":  inUse(t, "transfer", &nw.transfers),
		"tcpFrame":  inUse(t, "tcpFrame", &nw.tcpFrames),
		"outage":    inUse(t, "outage", &nw.outages),
		"partEvent": inUse(t, "partEvent", &nw.partEvents),
	}
}

// TestRearmReclaimsEveryRecord ends each run with a record of every
// pooled type held by the kernel — a multicast train in flight and its
// staggered copy pending, a unicast frame on the wire, a TCP exchange
// with its reply transfer and two frames in flight, an outage and a
// partition past the horizon — and checks that Rearm takes them all
// back: afterwards every pool holds each record it made, once, and the
// same traffic on the rearmed network allocates nothing.
func TestRearmReclaimsEveryRecord(t *testing.T) {
	cfg := fixedDelayConfig(100 * sim.Microsecond)
	k := sim.New(1)
	nw := mustNew(k, cfg)
	for i := 0; i < 4; i++ {
		nw.AddNode("")
	}
	sink := &countingEndpoint{}
	served := 0
	var server Endpoint = EndpointFunc(func(m *Message) {
		served++
		m.Conn.Reply(Outgoing{Kind: "reply"}, nil)
	})
	tcp := DefaultTCPConfig()
	sideB := []NodeID{3}
	run := func() {
		for i := 0; i < 4; i++ {
			nw.Node(NodeID(i)).SetEndpoint(sink)
			nw.Join(NodeID(i), Group(1))
		}
		nw.Node(1).SetEndpoint(server)
		nw.SendTCPWith(tcp, 0, 1, Outgoing{Kind: "get"}, nil)
		nw.ScheduleFailure(InterfaceFailure{Node: 2, Mode: FailBoth, Start: sim.Second, Duration: sim.Second})
		nw.SchedulePartition(Partition{Start: sim.Second, Duration: sim.Second, SideB: sideB})
		// Established at 200µs, the request lands at 300µs: its ACK and
		// the reply are on the wire until 400µs.
		k.Run(350 * sim.Microsecond)
		nw.Multicast(0, Group(1), Outgoing{Kind: "announce"}, 2)
		nw.SendUDP(2, 3, Outgoing{Kind: "datagram"})
	}
	rearm := func() {
		k.Reset(1)
		nw.Rearm(k, cfg, 4)
	}

	run()
	for name, n := range recordsInUse(t, nw) {
		if n == 0 {
			t.Errorf("no %s record in use at the end of the run — the check is vacuous", name)
		}
	}
	rearm()
	for name, n := range recordsInUse(t, nw) {
		if n != 0 {
			t.Errorf("%d %s records still out after Rearm", n, name)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { run(); rearm() }); allocs != 0 {
		t.Errorf("a run rearmed with every record type in flight costs %.1f allocs, want 0", allocs)
	}
	if served != 22 {
		t.Fatalf("%d requests served in 22 runs", served)
	}
}
