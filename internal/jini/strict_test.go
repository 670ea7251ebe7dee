package jini

import (
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// A hardened Registry's three lease tables are strict: a Manager's
// registration renewal and a User's notification-request and
// event-subscription renewal that arrive at the expiry instant, ahead of
// the purge, are refused with RenewError, where the baseline acks them.
// A re-Subscribe at that instant still restarts the subscription lease.
func TestHardenedRegistryRefusesRenewalsAtExpiry(t *testing.T) {
	const lease = 10 * sim.Second
	for _, hardened := range []bool{false, true} {
		k := sim.New(1)
		nw := netsim.MustNew(k, netsim.DefaultConfig())
		cfg := DefaultConfig()
		cfg.Hardened = hardened
		reg := NewRegistry(nw.AddNode("Registry"), cfg)
		got := map[netsim.NodeID]string{}
		peer := func(name string) netsim.NodeID {
			n := nw.AddNode(name)
			n.SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) {
				switch m.Packet.Kind {
				case wire.RenewAck, wire.RenewError:
					got[n.ID] = m.Kind
				}
			}))
			return n.ID
		}
		mgr, user := peer("Manager"), peer("User")
		deliver := func(from netsim.NodeID, p wire.Packet) {
			reg.Deliver(&netsim.Message{From: from, To: reg.ID(), Kind: p.Kind.String(), Packet: p,
				Transport: netsim.UDP, SentAt: k.Now()})
		}

		// Scheduled before the leases are granted, so at the expiry instant
		// the kernel's FIFO tie-break runs them ahead of the purges.
		k.At(sim.Time(lease), func() {
			deliver(mgr, wire.Packet{Kind: wire.Renew, Manager: mgr, Lease: lease})
			deliver(user, wire.Packet{Kind: wire.Renew, Manager: netsim.NoNode, Lease: lease})
			deliver(user, wire.Packet{Kind: wire.Subscribe, Manager: mgr, Lease: lease})
		})
		sd := discovery.ServiceDescription{ServiceType: "ColorPrinter"}.Freeze()
		deliver(mgr, wire.Packet{Kind: wire.Register, Manager: mgr, SD: sd, Lease: lease})
		deliver(user, wire.Packet{Kind: wire.Subscribe, Manager: netsim.NoNode, Q: &discovery.Query{}, Lease: lease})
		deliver(user, wire.Packet{Kind: wire.Subscribe, Manager: mgr, Lease: lease})
		k.Run(sim.Time(lease) + sim.Second)

		want := wire.RenewAck.String()
		if hardened {
			want = wire.RenewError.String()
		}
		if got[mgr] != want || got[user] != want {
			t.Errorf("hardened=%v: Manager got %q, User got %q, want %q for both", hardened, got[mgr], got[user], want)
		}
		if reg.Subscribers() != 1 {
			t.Errorf("hardened=%v: %d event subscriptions after the re-Subscribe, want 1", hardened, reg.Subscribers())
		}
	}
}
