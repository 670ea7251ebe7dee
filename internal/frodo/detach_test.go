package frodo

import (
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// A device that departs permanently before its boot delay elapses must
// stay quiet: the pending boot event fires into a detached node and
// must not start the elector, announcements or search — those sends
// would otherwise run for the rest of the simulation and, once the
// retired slot is recycled, transmit under the new tenant's identity.
func TestDetachBeforeBootStaysQuiet(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	n := nw.AddNode("u")
	nd := NewNode(n, shared(TwoPartyConfig()), Class300D, 1)
	nd.AttachUser(discovery.Query{ServiceType: "X"}, nil)
	nd.Start(5 * sim.Second)
	k.At(1*sim.Second, func() {
		if !nd.Detach() {
			t.Error("Detach refused on an idle pre-boot node")
		}
		nw.Retire(n.ID)
	})
	k.Run(600 * sim.Second)
	if c := nw.Counters(); c.Sends != 0 {
		t.Errorf("detached node transmitted %d frames", c.Sends)
	}
}

// Detach must refuse while the node serves as Central: its repository
// and subscribers depend on it, so churn keeps the slot alive instead.
func TestDetachRefusedForCentral(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	n := nw.AddNode("c")
	nd := NewNode(n, shared(TwoPartyConfig()), Class300D, 9)
	nd.Start(0)
	k.Run(120 * sim.Second) // alone on the LAN: wins the election
	if !nd.IsCentral() {
		t.Skip("node did not become Central; election config changed")
	}
	if nd.Detach() {
		t.Error("Detach succeeded on the sitting Central")
	}
}
