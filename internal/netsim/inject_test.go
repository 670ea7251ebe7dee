package netsim

import (
	"testing"

	"repro/internal/sim"
)

// External injection must deliver through the normal path for valid
// endpoints and report errors — never panic — for invalid ones.
func TestExternalInjection(t *testing.T) {
	k := sim.New(1)
	nw := MustNew(k, DefaultConfig())
	src := nw.AddNode("src")
	dst := nw.AddNode("dst")
	var got int
	dst.SetEndpoint(EndpointFunc(func(m *Message) {
		if m.From == src.ID {
			got++
		}
	}))
	nw.Join(dst.ID, Group(1))

	out := Outgoing{Kind: "Ping", Payload: struct{}{}}
	if err := nw.ExternalUDP(src.ID, dst.ID, out); err != nil {
		t.Fatalf("ExternalUDP: %v", err)
	}
	if err := nw.ExternalMulticast(src.ID, Group(1), out); err != nil {
		t.Fatalf("ExternalMulticast: %v", err)
	}
	k.Run(sim.Second)
	if got != 2 {
		t.Fatalf("delivered %d frames; want 2 (one unicast, one fanned-out copy)", got)
	}

	if err := nw.ExternalUDP(src.ID, NodeID(99), out); err == nil {
		t.Error("ExternalUDP to unknown node succeeded")
	}
	if err := nw.ExternalUDP(NodeID(-3), dst.ID, out); err == nil {
		t.Error("ExternalUDP from invalid node succeeded")
	}
	if err := nw.ExternalMulticast(NodeID(99), Group(1), out); err == nil {
		t.Error("ExternalMulticast from unknown node succeeded")
	}
	nw.Retire(dst.ID)
	if err := nw.ExternalUDP(src.ID, dst.ID, out); err == nil {
		t.Error("ExternalUDP to retired node succeeded")
	}
}

// On a shard ≥ 1 network NodeIDs start at the shard's base, not at zero:
// injection must validate the slot the ID names — a valid shard-1 source
// is accepted, a retired one refused — instead of indexing the node table
// with the raw ID.
func TestExternalInjectionOnShard(t *testing.T) {
	_, kB, _, nwB, _, _ := twoShardFabric(t)
	src := nwB.AddNode("src")
	dst := nwB.AddNode("dst")
	gone := nwB.AddNode("gone")
	if src.ID.Shard() != 1 || src.ID.Local() != 0 {
		t.Fatalf("src is node %d of shard %d, want node 0 of shard 1", src.ID.Local(), src.ID.Shard())
	}
	got := 0
	dst.SetEndpoint(EndpointFunc(func(*Message) { got++ }))
	nwB.Join(dst.ID, Group(1))
	nwB.Retire(gone.ID)

	out := Outgoing{Kind: "Ping", Payload: struct{}{}}
	if err := nwB.ExternalUDP(src.ID, dst.ID, out); err != nil {
		t.Fatalf("ExternalUDP between shard-1 nodes: %v", err)
	}
	if err := nwB.ExternalMulticast(src.ID, Group(1), out); err != nil {
		t.Fatalf("ExternalMulticast from a shard-1 node: %v", err)
	}
	kB.Run(sim.Second)
	if got != 2 {
		t.Fatalf("delivered %d frames; want 2", got)
	}
	if err := nwB.ExternalUDP(src.ID, gone.ID, out); err == nil {
		t.Error("ExternalUDP to a retired shard-1 node succeeded")
	}
	// The same local indices under shard 0's base are not this network's.
	if err := nwB.ExternalUDP(NodeID(src.ID.Local()), dst.ID, out); err == nil {
		t.Error("ExternalUDP from a shard-0 ID succeeded on shard 1")
	}
	if err := nwB.ExternalUDP(src.ID, MakeNodeID(1, 99), out); err == nil {
		t.Error("ExternalUDP to an unknown shard-1 node succeeded")
	}
}
