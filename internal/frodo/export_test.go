package frodo

// EnsureRegistry materialises the Registry capability now, as every 300D
// node's constructor did before the capability became lazy. Test-only:
// TestLazyRegistryMatchesEager keeps eager construction as the reference.
func (nd *Node) EnsureRegistry() { nd.ensureRegistry() }
