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

// Class reports the device class.
func (nd *Node) Class() Class { return nd.class }

// Registry returns the 300D Registry capability: nil for other classes,
// and for a 300D node that has never been Central or Backup.
func (nd *Node) Registry() *RegistryRole { return nd.registry }

// cachedVersion reports the cached description version for a Manager.
func (u *UserRole) cachedVersion(manager netsim.NodeID) uint64 {
	rec, ok := u.cache.Get(manager)
	if !ok {
		return 0
	}
	return rec.SD.Version()
}

// Outstanding reports how many notifications are still unacknowledged.
func (p *propagator) Outstanding() int { return len(p.pending) }
