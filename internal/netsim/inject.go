package netsim

import "fmt"

// External frame injection: the entry points the live runtime uses to
// put gateway-originated traffic on the simulated fabric. They are thin
// wrappers over SendUDP/Multicast with two differences that matter for
// code driven by real clients instead of a fixed schedule:
//
//   - invalid targets are reported as errors, not panics — an external
//     request naming a bogus or recycled node must fail that one request,
//     never take the whole serving loop down;
//   - the concurrency contract is spelled out: the network is owned by a
//     single kernel goroutine, so these must run on it. The live Driver's
//     Inject/Call serialize external callers into the event loop; nothing
//     here is safe to call from an arbitrary goroutine directly.

// checkNode validates one injection endpoint.
func (nw *Network) checkNode(id NodeID, role string) error {
	if !nw.known(id) {
		return fmt.Errorf("netsim: inject: unknown %s node %d", role, id)
	}
	if nw.slots[id].retired {
		return fmt.Errorf("netsim: inject: %s node %d is retired", role, id)
	}
	return nil
}

// ExternalUDP transmits one datagram from an externally driven node
// (the live gateway's port node), after validating both endpoints. The
// frame then takes the exact same path as protocol traffic — loss,
// delay, partitions, tracing and counters all apply — so a gateway
// request is indistinguishable on the wire from a simulated peer's.
// Must be called on the kernel goroutine (live.Driver.Inject).
func (nw *Network) ExternalUDP(from, to NodeID, out Outgoing) error {
	if err := nw.checkNode(from, "source"); err != nil {
		return err
	}
	if err := nw.checkNode(to, "target"); err != nil {
		return err
	}
	nw.SendUDP(from, to, out)
	return nil
}

// ExternalMulticast transmits one multicast copy from an externally
// driven node to a group, with the same validation and concurrency
// contract as ExternalUDP. The sender does not need to be a member of
// the group (fan-out never includes the sender anyway).
func (nw *Network) ExternalMulticast(from NodeID, g Group, out Outgoing) error {
	if err := nw.checkNode(from, "source"); err != nil {
		return err
	}
	nw.Multicast(from, g, out, 1)
	return nil
}
