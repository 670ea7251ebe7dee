package frodo

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Node is one FRODO device. Its behaviour is composed from its device
// class and attached roles: every node tracks the Central; 3C/3D nodes
// announce their presence until the Central is found; 300D nodes carry
// Registry capability and take part in the Central election.
//
// A Node is one allocation: the election state and every timer are
// embedded, the configuration is shared with every other node of the
// build, and the Registry capability materialises only on the nodes that
// come to need it (ensureRegistry).
type Node struct {
	// The first cache line holds what the two O(N²) receive paths read —
	// an election candidacy (n for the own ID, backupPick, registry,
	// elector) and a multicast search (manager) — so a delivery that ends
	// in "not for me" touches this line and nothing else
	// (TestNodeReceivePathFitsCacheLine).
	n *netsim.Node

	// registry is the 300D Registry capability. It stays nil until the
	// node first becomes Central or is appointed Backup: nil ⇔ never
	// Central nor Backup, and every Registry-only handler is a no-op on
	// nil. Once created it is kept (a demoted Central keeps its tables).
	registry *RegistryRole
	manager  *ManagerRole

	// backupPick is the strongest other 300D node heard in election
	// candidacies; the Central appoints it Backup.
	backupPick backupCandidate
	elector    elector

	// The second line serves the Central's announcement train.
	user *UserRole
	// central is the node currently believed to be the Central, NoNode if
	// unknown; centralPower orders competing claims; centralLease purges
	// a silent Central.
	central      netsim.NodeID
	centralPower int
	power        int
	cfg          *Config
	nw           *netsim.Network
	k            *sim.Kernel
	class        Class

	started bool
	// detached marks a quiesced device (Detach): late events — notably a
	// boot still pending when the device permanently departed — must not
	// restart the protocol on a retired (possibly recycled) node slot.
	detached bool
	// txDown/rxDown mirror the node's interface state when hardened:
	// the Registry announcer is gated on them so a Central with a failed
	// interface stops advertising a claim it cannot honour. A dead
	// transmitter makes the claim a lie outright; a dead receiver is
	// subtler — the node can still shout, but it cannot hear renewals,
	// requests, or a stronger rival, so its advertisement only prolongs
	// split-brain. ifaceHook is registered on every bind when hardened.
	txDown    bool
	rxDown    bool
	ifaceHook func(txUp, rxUp bool)

	centralLease sim.Deadline
	// nodeAnnounce is the 3C/3D presence train that runs until the
	// Central is discovered ("FRODO also requires 3D Managers to announce
	// their presence periodically until the Registry is discovered").
	nodeAnnounce sim.Ticker
	// The election timers (300D only; see election.go).
	electWindow  sim.Deadline
	electWait    sim.Deadline
	electBackoff core.Backoff
}

// Static timer callbacks shared by every node.
func nodeCentralTimeout(x any)   { x.(*Node).onCentralTimeout() }
func nodeAnnouncePresence(x any) { x.(*Node).announcePresence() }

// NewNode attaches a FRODO device of the given class to a network node.
// Power orders 300D nodes in the Central election; it is ignored for
// other classes. The configuration is shared, not copied: it must not
// change once a node has been built from it.
func NewNode(n *netsim.Node, cfg *Config, class Class, power int) *Node {
	nd := &Node{
		cfg: cfg, class: class, power: power,
		n: n, nw: n.Network(), k: n.Kernel(),
		central:    netsim.NoNode,
		backupPick: noBackupCandidate,
	}
	nd.centralLease.Init(nd.k, nodeCentralTimeout, nd)
	nd.nodeAnnounce.Init(nd.k, cfg.NodeAnnouncePeriod, nodeAnnouncePresence, nd)
	if class == Class300D {
		nd.initElection()
		if cfg.Hardened {
			nd.ifaceHook = nd.onInterfaceChange
		}
	}
	nd.bind()
	return nd
}

// onInterfaceChange tracks the interface state for the announcer gate
// (hardened only).
func (nd *Node) onInterfaceChange(txUp, rxUp bool) {
	wasGated := !nd.onAir()
	nd.txDown = !txUp
	nd.rxDown = !rxUp
	if wasGated && txUp && rxUp && nd.IsCentral() {
		// Fully back on the air: reassert the claim immediately
		// so peers that elected around the silence demote.
		nd.registry.announcer.AnnounceNow()
	}
}

// onAir reports whether both interfaces are up as far as the node knows.
func (nd *Node) onAir() bool { return !nd.txDown && !nd.rxDown }

// ensureRegistry materialises the Registry capability the first time the
// node is elected Central or appointed Backup.
func (nd *Node) ensureRegistry() *RegistryRole {
	if nd.registry == nil {
		nd.registry = newRegistryRole(nd)
		if nd.cfg.Hardened {
			nd.registry.announcer.SetGate(nd.onAir)
		}
	}
	return nd.registry
}

// bind attaches the device to its node slot; construction and Rearm
// share it.
func (nd *Node) bind() {
	nd.n.SetEndpoint(nd)
	nd.nw.JoinTopics(nd.n.ID, DiscoveryGroup, nd.topics())
	if nd.ifaceHook != nil {
		nd.n.OnInterfaceChange(nd.ifaceHook)
	}
}

// topics is what Deliver does something with, given the device's class
// and the roles attached so far: anything else it is handed falls through
// to a no-op (TestDeclinedTopicsAreNoOps), so the network need not hand
// it over at all.
func (nd *Node) topics() netsim.TopicSet {
	ts := netsim.Topics()
	if nd.manager != nil {
		ts |= netsim.Topics(TopicSearch)
	}
	if nd.class == Class300D {
		ts |= netsim.Topics(TopicElection, TopicPresence)
	}
	return ts
}

// Rearm resets the whole device to its construction-time state for
// workspace reuse: every role, table and timer returns to pristine with
// its event references dropped (the kernel has been reset), capacity
// kept, and the node slot re-bound. A Registry capability that an earlier
// run materialised is kept, pristine, for the next election.
func (nd *Node) Rearm() {
	nd.central = netsim.NoNode
	nd.centralPower = 0
	nd.centralLease.Rearm()
	nd.nodeAnnounce.Rearm()
	nd.backupPick = noBackupCandidate
	if nd.registry != nil {
		nd.registry.rearm()
	}
	if nd.class == Class300D {
		nd.rearmElection()
	}
	if nd.manager != nil {
		nd.manager.rearm()
	}
	if nd.user != nil {
		nd.user.rearm()
	}
	nd.txDown = false
	nd.rxDown = false
	nd.started = false
	nd.detached = false
	nd.bind()
}

// AttachManager adds the Manager role hosting one service. The service
// description is tagged with the node's device class so Users can pick
// the subscription mode.
func (nd *Node) AttachManager(sd discovery.ServiceDescription) *ManagerRole {
	if nd.manager != nil {
		panic("frodo: manager role already attached")
	}
	nd.manager = newManagerRole(nd, sd)
	nd.nw.JoinTopics(nd.n.ID, DiscoveryGroup, nd.topics()) // now also answers searches
	return nd.manager
}

// AttachUser adds the User role with one service requirement. 3C devices
// cannot be Users (§3).
func (nd *Node) AttachUser(q discovery.Query, l discovery.ConsistencyListener) *UserRole {
	if nd.class == Class3C {
		panic("frodo: 3C devices are Managers only")
	}
	if nd.user != nil {
		panic("frodo: user role already attached")
	}
	nd.user = newUserRole(nd, q, l)
	return nd.user
}

// Start boots the device after the given delay.
func (nd *Node) Start(bootDelay sim.Duration) {
	nd.k.AfterArg(bootDelay, nodeBoot, nd)
}

// nodeBoot is the static boot callback shared by every FRODO device.
func nodeBoot(x any) {
	nd := x.(*Node)
	if nd.detached {
		return // departed permanently before the boot completed
	}
	nd.started = true
	if nd.class == Class300D {
		nd.startElection()
	} else if nd.central == netsim.NoNode {
		nd.nodeAnnounce.Start(nd.k.UniformDuration(0, sim.Second))
	}
	if nd.user != nil {
		nd.user.start()
	}
}

// Detach quiesces the whole device for node retirement after a permanent
// churn departure: every role's timers and leases are disarmed so no
// zombie event can later transmit under this node's (possibly reused)
// identity. It reports whether detaching was possible — a node currently
// serving as Central or Backup, or hosting a Manager role, declines, and
// the caller must keep its slot alive.
func (nd *Node) Detach() bool {
	if nd.manager != nil {
		return false
	}
	if nd.registry != nil && (nd.registry.active || nd.registry.backup) {
		return false
	}
	if nd.class == Class300D {
		nd.electionCentralKnown()
	}
	nd.nodeAnnounce.Stop()
	nd.centralLease.Clear()
	if nd.registry != nil {
		nd.registry.quiesce()
	}
	if nd.user != nil {
		nd.user.stop()
	}
	nd.started = false
	nd.detached = true
	return true
}

// ID reports the device's network node ID.
func (nd *Node) ID() netsim.NodeID { return nd.n.ID }

// Class reports the device class.
func (nd *Node) Class() Class { return nd.class }

// Config reports the configuration the node was built with.
func (nd *Node) Config() Config { return *nd.cfg }

// Central reports the node currently believed to be the Central.
func (nd *Node) Central() netsim.NodeID { return nd.central }

// IsCentral reports whether this node currently serves as the Central.
func (nd *Node) IsCentral() bool { return nd.registry != nil && nd.registry.active }

// IsBackup reports whether this node currently serves as the Backup.
func (nd *Node) IsBackup() bool { return nd.registry != nil && nd.registry.backup }

// Manager returns the attached Manager role, nil if none.
func (nd *Node) Manager() *ManagerRole { return nd.manager }

// User returns the attached User role, nil if none.
func (nd *Node) User() *UserRole { return nd.user }

// Registry returns the 300D Registry capability: nil for other classes,
// and for a 300D node that has never been Central or Backup.
func (nd *Node) Registry() *RegistryRole { return nd.registry }

// announcePresence multicasts a presence announcement. The Central
// answers with unicast Registry info, which "allows faster discovery of
// the Registry" than waiting for its periodic train.
func (nd *Node) announcePresence() {
	role := discovery.RoleUser
	if nd.manager != nil && nd.user == nil {
		role = discovery.RoleManager
	}
	nd.nw.Multicast(nd.n.ID, DiscoveryGroup, netsim.Outgoing{
		Kind:    discovery.Kind(discovery.Announce{}),
		Counted: true,
		Topic:   TopicPresence,
		Payload: discovery.Announce{Role: role, Power: nd.power},
	}, 1)
}

// setCentral adopts a (possibly new) Central and refreshes its lease.
func (nd *Node) setCentral(id netsim.NodeID, power int) {
	if nd.registry != nil && id != nd.n.ID {
		nd.registry.onCentralSeen()
	}
	if nd.central == id {
		nd.centralPower = power
		nd.centralLease.SetAfter(nd.cfg.CentralTimeout)
		nd.nodeAnnounce.Stop()
		if nd.class == Class300D {
			nd.electionCentralKnown()
		}
		return
	}
	// Competing claim: keep the more powerful Central (ties: higher ID).
	if nd.central != netsim.NoNode {
		if power < nd.centralPower || (power == nd.centralPower && id < nd.central) {
			if nd.cfg.Hardened && nd.IsCentral() {
				// Split-brain heal: a weaker rival Central just reached us.
				// Baseline stays silent until the next periodic train, so
				// both claims persist for up to an announce period;
				// reasserting now makes the rival demote on first contact.
				nd.registry.announcer.AnnounceNow()
			}
			return
		}
	}
	nd.central = id
	nd.centralPower = power
	nd.centralLease.SetAfter(nd.cfg.CentralTimeout)
	nd.nodeAnnounce.Stop()
	if nd.IsCentral() && id != nd.n.ID {
		// A more powerful Central exists: demote (§3 keeps a single
		// Registry; the strongest claim wins).
		nd.registry.deactivate()
	}
	if nd.class == Class300D {
		nd.electionCentralKnown()
	}
	if nd.manager != nil {
		nd.manager.centralChanged(id)
	}
	if nd.user != nil {
		nd.user.centralChanged(id)
	}
}

// onCentralTimeout purges a silent Central: 3C/3D nodes resume presence
// announcements; 300D nodes may start an election (the Backup instead
// takes over on its own, earlier timeout).
func (nd *Node) onCentralTimeout() {
	if nd.IsCentral() {
		// We are the Central; our own belief needs no lease.
		return
	}
	nd.centralGone()
}

// centralGone drops the current Central belief and resumes discovery.
// Reached by lease expiry (onCentralTimeout) or, hardened, by the
// Central's explicit Bye.
func (nd *Node) centralGone() {
	nd.central = netsim.NoNode
	nd.centralPower = 0
	if nd.manager != nil {
		nd.manager.centralLost()
	}
	if nd.user != nil {
		nd.user.centralLost()
	}
	if !nd.started {
		return
	}
	if nd.class == Class300D {
		nd.electionCentralLost()
	} else {
		nd.nodeAnnounce.Start(nd.k.UniformDuration(0, sim.Second))
	}
}

// Deliver implements netsim.Endpoint, routing traffic to the roles.
func (nd *Node) Deliver(msg *netsim.Message) {
	switch p := msg.Payload.(type) {
	case ElectionAnnounce:
		nd.onCandidate(msg.From, p.Power)
	case AppointBackup:
		if nd.class == Class300D {
			nd.ensureRegistry().onAppointBackup(msg.From, p)
		}
	case discovery.Announce:
		nd.onAnnounce(msg, p)
	case discovery.Search:
		nd.onSearch(msg, p)
	case discovery.SearchReply:
		if nd.user != nil {
			nd.user.onSearchReply(msg.From, p)
		}
	case discovery.Register:
		if nd.IsCentral() {
			nd.registry.onRegister(msg.From, p)
		}
	case discovery.RegisterAck:
		if nd.manager != nil {
			nd.manager.onRegisterAck(msg.From)
		}
	case discovery.Subscribe:
		nd.onSubscribe(msg, p)
	case discovery.SubscribeAck:
		if nd.user != nil {
			nd.user.onSubscribeAck(msg.From, p)
		}
	case discovery.Renew:
		nd.onRenew(msg, p)
	case discovery.RenewAck:
		nd.onRenewAck(msg, p)
	case discovery.RenewError:
		if p.Manager == netsim.NoNode {
			if nd.user != nil {
				nd.user.onInterestError()
			}
			return
		}
		if nd.manager != nil {
			nd.manager.onRenewError(msg.From)
		}
	case discovery.Update:
		nd.onUpdate(msg, p)
	case discovery.UpdateAck:
		nd.onUpdateAck(msg, p)
	case discovery.Get:
		nd.onGet(msg, p)
	case discovery.GetReply:
		if nd.user != nil {
			nd.user.onGetReply(msg.From, p)
		}
	case discovery.ResubscribeRequest:
		if nd.user != nil {
			nd.user.onResubscribeRequest(msg.From, p)
		}
	case discovery.ManagerGone:
		if nd.user != nil {
			nd.user.onManagerGone(msg.From, p)
		}
	case discovery.Bye:
		nd.onBye(msg.From, p)
	}
}

// onBye handles a hardened goodbye. A Registry Bye retracts the sender's
// Central claim (demotion or retirement) — peers that believed it resume
// discovery immediately instead of waiting out CentralTimeout. Any other
// Bye is a departing Manager/User whose leases are evicted now. Handling
// is unconditional: baseline runs never send a Bye.
func (nd *Node) onBye(from netsim.NodeID, p discovery.Bye) {
	if p.Role == discovery.RoleRegistry {
		if from == nd.central && !nd.IsCentral() {
			nd.centralLease.Clear()
			nd.centralGone()
		}
		return
	}
	if nd.registry != nil {
		nd.registry.onBye(from)
	}
	if nd.manager != nil {
		nd.manager.onBye(from)
	}
}

func (nd *Node) onAnnounce(msg *netsim.Message, a discovery.Announce) {
	if a.Role == discovery.RoleRegistry {
		nd.setCentral(msg.From, a.Power)
		if nd.user != nil && msg.From == nd.central {
			nd.user.onCentralAnnounce()
		}
		return
	}
	// A presence announcement from a node still searching for the
	// Central: answer with unicast Registry info if we are it.
	if nd.IsCentral() {
		nd.nw.SendUDP(nd.n.ID, msg.From, netsim.Outgoing{
			Kind:    discovery.Kind(discovery.Announce{}),
			Counted: true,
			Payload: discovery.Announce{Role: discovery.RoleRegistry, Power: nd.power,
				CacheLease: nd.cfg.CacheLease},
		})
	}
}

func (nd *Node) onSearch(msg *netsim.Message, s discovery.Search) {
	if msg.Multicast {
		// PR5a: multicast queries are answered by matching Managers
		// directly.
		if nd.manager != nil {
			nd.manager.onMulticastSearch(msg.From, s)
		}
		return
	}
	if nd.IsCentral() {
		nd.registry.onSearch(msg.From, s)
	}
}

func (nd *Node) onSubscribe(msg *netsim.Message, p discovery.Subscribe) {
	if p.Manager == nd.n.ID && nd.manager != nil {
		nd.manager.onSubscribe(msg.From, p)
		return
	}
	if nd.IsCentral() {
		nd.registry.onSubscribe(msg.From, p)
	}
}

func (nd *Node) onRenew(msg *netsim.Message, p discovery.Renew) {
	switch {
	case p.Manager == msg.From:
		// Registration lease renewal from a Manager.
		if nd.IsCentral() {
			nd.registry.onRegistrationRenew(msg.From, p)
		}
	case p.Manager == nd.n.ID && nd.manager != nil:
		// 2-party subscription renewal addressed to our Manager role.
		nd.manager.onSubscriptionRenew(msg.From, p)
	default:
		// 3-party subscription renewal at the Central.
		if nd.IsCentral() {
			nd.registry.onSubscriptionRenew(msg.From, p)
		}
	}
}

func (nd *Node) onRenewAck(msg *netsim.Message, p discovery.RenewAck) {
	if p.Manager == nd.n.ID && nd.manager != nil {
		nd.manager.onRegistrationRenewAck(msg.From)
		return
	}
	if nd.user != nil {
		nd.user.onRenewAck(msg.From, p)
	}
}

func (nd *Node) onUpdate(msg *netsim.Message, p discovery.Update) {
	if p.ForRegistry {
		if nd.IsCentral() {
			nd.registry.onUpdate(msg.From, p)
		}
		return
	}
	if nd.user != nil {
		nd.user.onUpdate(msg.From, p)
	}
}

func (nd *Node) onUpdateAck(msg *netsim.Message, p discovery.UpdateAck) {
	if p.SenderRole == discovery.RoleRegistry {
		// The Central confirmed our repository update.
		if nd.manager != nil {
			nd.manager.onCentralUpdateAck(p)
		}
		return
	}
	// A subscriber's acknowledgement: route to whoever notified it.
	if p.Manager == nd.n.ID && nd.manager != nil {
		nd.manager.onSubscriberAck(msg.From, p)
		return
	}
	if nd.registry != nil && nd.registry.active {
		nd.registry.onSubscriberAck(msg.From, p)
	}
}

func (nd *Node) onGet(msg *netsim.Message, p discovery.Get) {
	if p.Manager == nd.n.ID && nd.manager != nil {
		nd.manager.onGet(msg.From)
		return
	}
	if nd.IsCentral() {
		nd.registry.onGet(msg.From, p)
	}
}

// String aids debugging and event logs.
func (nd *Node) String() string {
	return fmt.Sprintf("frodo[%d/%s]", nd.n.ID, nd.class)
}
