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
