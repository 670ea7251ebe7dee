package frodo

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Node is one FRODO device. Its behaviour is composed from its device
// class and attached roles: every node tracks the Central; 3C/3D nodes
// announce their presence until the Central is found; 300D nodes carry
// Registry capability and take part in the Central election.
//
// A Node is one allocation: every timer is embedded, the configuration is
// shared with every other node of the build, the election record sits in
// the build's Fleet, and the Registry capability materialises only on the
// nodes that come to need it (ensureRegistry).
type Node struct {
	// The first cache line holds what the Central's announcement train
	// reads at every node it reaches (onAnnounce, setCentral and the
	// User's renewal pass): the own ID behind n, the roles, the Central
	// belief, the configuration, the class, the election bit and the
	// vouched bit. A candidacy reads the node's ballot instead
	// (TestReceivePathLayout).
	n *netsim.Node

	// registry is the 300D Registry capability. It stays nil until the
	// node first becomes Central or is appointed Backup: nil ⇔ never
	// Central nor Backup, and every Registry-only handler is a no-op on
	// nil. Once created it is kept (a demoted Central keeps its tables).
	registry *RegistryRole
	manager  *ManagerRole
	user     *UserRole
	// central is the node currently believed to be the Central, NoNode if
	// unknown; centralPower orders competing claims; centralLease purges
	// a silent Central.
	central      netsim.NodeID
	centralPower int
	cfg          *Config
	class        Class
	// running marks an election in progress (300D only; see election.go).
	// The ballot mirrors it.
	running bool
	// vouched marks a User that caches a record the Central vouches for,
	// one that a Central announcement renews (UserRole.vouchedFor). The
	// UserRole keeps it wherever its cache, subActive or lessee change
	// (syncVouched), so an announcement enters the role only when it has
	// something to renew: a subscribed 2-party User caches just the
	// record its Manager vouches for, and finding that out in the cache
	// costs the announcement its cache misses.
	vouched bool

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

	// rec is the node's election record and its network endpoint.
	rec   *ballot
	power int
	nw    *netsim.Network
	k     *sim.Kernel

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
// other classes, and must fit in an int32. The configuration is shared,
// not copied: it must not change once a node has been built from it. The
// node's election record is allocated on its own; a Fleet keeps a whole
// build's records together.
func NewNode(n *netsim.Node, cfg *Config, class Class, power int) *Node {
	return newNode(n, cfg, class, power, new(ballot))
}

func newNode(n *netsim.Node, cfg *Config, class Class, power int, rec *ballot) *Node {
	if int(int32(power)) != power {
		panic(fmt.Sprintf("frodo: power %d does not fit in an int32", power))
	}
	nd := &Node{
		cfg: cfg, class: class, power: power,
		n: n, nw: n.Network(), k: n.Kernel(),
		central: netsim.NoNode,
		rec:     rec,
	}
	rec.reset(nd)
	nd.centralLease.Init(nd.k, nodeCentralTimeout, nd)
	nd.nodeAnnounce.Init(nd.k, nodeAnnouncePeriod, nodeAnnouncePresence, nd)
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
	nd.n.SetEndpoint(nd.rec)
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
	nd.rec.reset(nd)
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

// announcePresence multicasts a presence announcement. The Central
// answers with unicast Registry info, which "allows faster discovery of
// the Registry" than waiting for its periodic train.
func (nd *Node) announcePresence() {
	role := wire.RoleUser
	if nd.manager != nil && nd.user == nil {
		role = wire.RoleManager
	}
	nd.nw.Multicast(nd.n.ID, DiscoveryGroup, netsim.Outgoing{Counted: true, Topic: TopicPresence,
		Packet: wire.Packet{Kind: wire.Announce, Role: role, N: uint64(nd.power)}}, 1)
}

// registryAnnounce is the Central's claim: its election power and how
// long receivers may cache it.
func (nd *Node) registryAnnounce() wire.Packet {
	return wire.Packet{Kind: wire.Announce, Role: wire.RoleRegistry, N: uint64(nd.power),
		Lease: cacheLease}
}

// setCentral adopts a (possibly new) Central and refreshes its lease.
func (nd *Node) setCentral(id netsim.NodeID, power int) {
	if nd.registry != nil && id != nd.n.ID {
		nd.registry.onCentralSeen()
	}
	if nd.central == id {
		nd.centralPower = power
		nd.centralLease.SetAfter(CentralTimeout)
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
	nd.centralLease.SetAfter(CentralTimeout)
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

// NodeOf reports the FRODO device behind a node slot's endpoint, nil if
// the endpoint is not one.
func NodeOf(ep netsim.Endpoint) *Node {
	if b, ok := ep.(*ballot); ok {
		return b.nd
	}
	return nil
}

// Deliver routes traffic to the roles. The node's network endpoint is its
// ballot, which decides candidacies itself and hands everything else
// here.
func (nd *Node) Deliver(msg *netsim.Message) {
	p := &msg.Packet
	switch p.Kind {
	case wire.ElectionAnnounce:
		nd.rec.onCandidate(msg.From, p.N)
	case wire.AppointBackup:
		if nd.class == Class300D {
			nd.ensureRegistry().onAppointBackup(p.Recs)
		}
	case wire.Announce:
		nd.onAnnounce(msg, p)
	case wire.Search:
		nd.onSearch(msg, p.Q)
	case wire.SearchReply:
		if nd.user != nil {
			nd.user.onSearchReply(p.Records())
		}
	case wire.Register:
		if nd.IsCentral() {
			nd.registry.onRegister(msg.From, p)
		}
	case wire.RegisterAck:
		if nd.manager != nil {
			nd.manager.onRegisterAck(msg.From)
		}
	case wire.Subscribe:
		nd.onSubscribe(msg, p)
	case wire.SubscribeAck:
		if nd.user != nil {
			nd.user.onSubscribeAck(msg.From, p.Record())
		}
	case wire.Renew:
		nd.onRenew(msg, p)
	case wire.RenewAck:
		nd.onRenewAck(msg, p.Manager)
	case wire.RenewError:
		if p.Manager == netsim.NoNode {
			if nd.user != nil {
				nd.user.onInterestError()
			}
			return
		}
		if nd.manager != nil {
			nd.manager.onRenewError(msg.From)
		}
	case wire.Update:
		nd.onUpdate(msg, p)
	case wire.UpdateAck:
		nd.onUpdateAck(msg, p)
	case wire.Get:
		nd.onGet(msg, p.Manager)
	case wire.GetReply:
		if nd.user != nil {
			nd.user.onGetReply(p.Record())
		}
	case wire.ResubscribeRequest:
		if nd.user != nil {
			nd.user.onResubscribeRequest(msg.From, p.Manager)
		}
	case wire.ManagerGone:
		if nd.user != nil {
			nd.user.onManagerGone(msg.From, p.Manager)
		}
	case wire.Bye:
		nd.onBye(msg.From, p.Role)
	}
}

// onBye handles a hardened goodbye. A Registry Bye retracts the sender's
// Central claim (demotion or retirement) — peers that believed it resume
// discovery immediately instead of waiting out CentralTimeout. Any other
// Bye is a departing Manager/User whose leases are evicted now. Handling
// is unconditional: baseline runs never send a Bye.
func (nd *Node) onBye(from netsim.NodeID, role wire.Role) {
	if role == wire.RoleRegistry {
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

func (nd *Node) onAnnounce(msg *netsim.Message, a *wire.Packet) {
	if a.Role == wire.RoleRegistry {
		nd.setCentral(msg.From, int(a.N))
		if nd.vouched && msg.From == nd.central {
			nd.user.onCentralAnnounce()
		}
		return
	}
	// A presence announcement from a node still searching for the
	// Central: answer with unicast Registry info if we are it.
	if nd.IsCentral() {
		nd.nw.SendUDP(nd.n.ID, msg.From, netsim.Outgoing{Counted: true, Packet: nd.registryAnnounce()})
	}
}

func (nd *Node) onSearch(msg *netsim.Message, q *discovery.Query) {
	if msg.Multicast {
		// PR5a: multicast queries are answered by matching Managers
		// directly.
		if nd.manager != nil {
			nd.manager.onMulticastSearch(msg.From, q)
		}
		return
	}
	if nd.IsCentral() {
		nd.registry.onSearch(msg.From, q)
	}
}

func (nd *Node) onSubscribe(msg *netsim.Message, p *wire.Packet) {
	if p.Manager == nd.n.ID && nd.manager != nil {
		nd.manager.onSubscribe(msg.From, p.Lease)
		return
	}
	if nd.IsCentral() {
		nd.registry.onSubscribe(msg.From, p)
	}
}

func (nd *Node) onRenew(msg *netsim.Message, p *wire.Packet) {
	switch {
	case p.Manager == msg.From:
		// Registration lease renewal from a Manager.
		if nd.IsCentral() {
			nd.registry.onRegistrationRenew(msg.From, p)
		}
	case p.Manager == nd.n.ID && nd.manager != nil:
		// 2-party subscription renewal addressed to our Manager role.
		nd.manager.onSubscriptionRenew(msg.From, p.Lease)
	default:
		// 3-party subscription renewal at the Central.
		if nd.IsCentral() {
			nd.registry.onSubscriptionRenew(msg.From, p)
		}
	}
}

func (nd *Node) onRenewAck(msg *netsim.Message, manager netsim.NodeID) {
	if manager == nd.n.ID && nd.manager != nil {
		nd.manager.onRegistrationRenewAck(msg.From)
		return
	}
	if nd.user != nil {
		nd.user.onRenewAck(msg.From)
	}
}

func (nd *Node) onUpdate(msg *netsim.Message, p *wire.Packet) {
	if p.ForRegistry {
		if nd.IsCentral() {
			nd.registry.onUpdate(msg.From, p.Record(), p.N)
		}
		return
	}
	if nd.user != nil {
		nd.user.onUpdate(msg.From, p.Record(), p.N)
	}
}

func (nd *Node) onUpdateAck(msg *netsim.Message, p *wire.Packet) {
	if p.Role == wire.RoleRegistry {
		// The Central confirmed our repository update.
		if nd.manager != nil {
			nd.manager.onCentralUpdateAck(p.N)
		}
		return
	}
	// A subscriber's acknowledgement: route to whoever notified it.
	if p.Manager == nd.n.ID && nd.manager != nil {
		nd.manager.onSubscriberAck(msg.From, p.N)
		return
	}
	if nd.registry != nil && nd.registry.active {
		nd.registry.onSubscriberAck(msg.From, p.Manager, p.N)
	}
}

func (nd *Node) onGet(msg *netsim.Message, manager netsim.NodeID) {
	if manager == nd.n.ID && nd.manager != nil {
		nd.manager.onGet(msg.From)
		return
	}
	if nd.IsCentral() {
		nd.registry.onGet(msg.From, manager)
	}
}

// String aids debugging and event logs.
func (nd *Node) String() string {
	return fmt.Sprintf("frodo[%d/%s]", nd.n.ID, nd.class)
}
