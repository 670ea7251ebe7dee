package frodo

import "repro/internal/netsim"

// EnsureRegistry materialises the Registry capability now, as every 300D
// node's constructor did before the capability became lazy. Test-only:
// TestLazyRegistryMatchesEager keeps eager construction as the reference.
func (nd *Node) EnsureRegistry() { nd.ensureRegistry() }

// BallotBits reports the two bits the node's ballot mirrors, and the
// Node's own running bit.
func (nd *Node) BallotBits() (central, running, nodeRunning bool) {
	return nd.rec.central, nd.rec.running, nd.running
}

// Ballot reports the node's election record, comparable by identity.
func (nd *Node) Ballot() any { return nd.rec }

// VouchBits reports the Node's vouched bit and what the User's renewal
// walk finds: whether any cached record is one a Central announcement
// renews.
func (nd *Node) VouchBits() (bit, walk bool) {
	if u := nd.user; u != nil {
		u.cache.EachKey(func(mgr netsim.NodeID) { walk = walk || u.vouchedFor(mgr) })
	}
	return nd.vouched, walk
}
