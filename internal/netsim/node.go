package netsim

import "repro/internal/sim"

// Node is a device attached to the simulated LAN. Its transmitter and
// receiver can fail independently (§5 Step 2): a node with a failed
// transmitter can still receive, and vice versa; both failed models a node
// failure. Interface failure does not destroy protocol state — the device
// keeps running and its timers keep firing, it just cannot communicate.
//
// Node is the handle protocols hold; the state every frame reads — the
// endpoint, the slot tenancy and the interface bits — lives in the
// network's slot table (slot), and the accessors below read and write it
// there.
type Node struct {
	ID   NodeID
	Name string

	net *Network

	// onInterfaceChange, if set, is invoked after any interface state
	// transition. Protocols use it to model the "application layer
	// indicates loss of connectivity" stop condition of SRN1/SRC1.
	onInterfaceChange func(txUp, rxUp bool)
}

// slot is one node's hot state, kept in Network.slots indexed by NodeID:
// a multicast delivery checks and reaches its receiver through one dense
// 24-byte record instead of a separately allocated Node.
type slot struct {
	ep Endpoint
	// gen counts slot tenancies: AddNode bumps it when recycling a
	// retired slot. Frames in flight and planned interface failures
	// capture the gen they were aimed at and no-op if the slot has
	// changed hands since — a recycled slot's new tenant must never
	// inherit its predecessor's traffic or outages.
	gen  uint32
	txUp bool
	rxUp bool
	// retired pins both interfaces down: the device left the network for
	// good and the slot awaits reuse (Network.Retire). Interface events
	// aimed at a retired slot are ignored.
	retired bool
}

func (n *Node) slot() *slot { return &n.net.slots[n.ID] }

// SetEndpoint attaches the protocol instance that receives this node's
// traffic. It must be called before any message can be delivered.
func (n *Node) SetEndpoint(ep Endpoint) { n.slot().ep = ep }

// Endpoint returns the attached protocol instance, nil if none.
func (n *Node) Endpoint() Endpoint { return n.slot().ep }

// OnInterfaceChange registers a callback invoked after every Tx/Rx state
// change.
func (n *Node) OnInterfaceChange(fn func(txUp, rxUp bool)) { n.onInterfaceChange = fn }

// SetTx changes transmitter state, tracing the transition.
func (n *Node) SetTx(up bool) {
	s := n.slot()
	if s.retired || s.txUp == up {
		return
	}
	s.txUp = up
	n.interfaceChanged("Tx", up)
}

// SetRx changes receiver state, tracing the transition.
func (n *Node) SetRx(up bool) {
	s := n.slot()
	if s.retired || s.rxUp == up {
		return
	}
	s.rxUp = up
	n.interfaceChanged("Rx", up)
}

// interfaceChanged traces an interface transition and tells the
// protocol.
func (n *Node) interfaceChanged(iface string, up bool) {
	if n.net.tracer != nil { // the label is built only for a reader
		n.net.traceNode(n.ID, ifaceEvent(iface, up))
	}
	if n.onInterfaceChange != nil {
		s := n.slot()
		n.onInterfaceChange(s.txUp, s.rxUp)
	}
}

func ifaceEvent(iface string, up bool) string {
	if up {
		return iface + " up"
	}
	return iface + " down"
}

// Kernel exposes the simulation kernel driving this node's network, so
// protocol code can schedule timers without threading the kernel through
// every constructor.
func (n *Node) Kernel() *sim.Kernel { return n.net.Kernel() }

// Network reports the network the node is attached to.
func (n *Node) Network() *Network { return n.net }
