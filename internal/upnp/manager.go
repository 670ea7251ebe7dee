package upnp

import (
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Manager is a UPnP device hosting one service. It announces itself with
// periodic ssdp:alive trains, answers M-SEARCH queries, serves description
// GETs, and notifies subscribers with invalidation NOTIFYs when the
// service changes.
type Manager struct {
	cfg  Config
	node *netsim.Node
	nw   *netsim.Network
	k    *sim.Kernel

	// sd is the current immutable description snapshot; initial is the
	// frozen construction-time state a workspace rearm returns to.
	sd        *discovery.Snapshot
	initial   *discovery.Snapshot
	announcer *core.Announcer

	// subs holds the eventing subscriptions keyed by subscriber; UPnP has
	// no Registry, so the Manager is the lessee (2-party subscription).
	subs discovery.LeaseTable[netsim.NodeID, struct{}]

	// ifaceHook is the interface-recovery announcement hook, built once
	// and re-registered on every rearm.
	ifaceHook func(txUp, rxUp bool)
}

// NewManager attaches a Manager to a node. Call Start to boot it.
func NewManager(node *netsim.Node, cfg Config, sd discovery.ServiceDescription) *Manager {
	m := &Manager{
		cfg:  cfg,
		node: node,
		nw:   node.Network(),
		k:    node.Kernel(),
	}
	m.initial = sd.Freeze()
	m.sd = m.initial
	m.subs.Init(m.k, nil, nil)
	m.subs.SetStrict(cfg.Hardened)
	m.announcer = core.NewAnnouncer(m.nw, node.ID, DiscoveryGroup,
		cfg.AnnouncePeriod, cfg.AnnounceCopies, m.announcement)
	// SSDP requires a device to advertise when network connectivity is
	// (re)established: announce as soon as the transmitter recovers. This
	// drives PR5's strength at high failure rates — "Users ... can get
	// updated when the Manager recovers from failures and announces its
	// presence."
	m.ifaceHook = func(txUp, _ bool) {
		if txUp && m.announcer.Running() {
			m.announcer.AnnounceNow()
		}
	}
	m.bind()
	return m
}

// bind attaches the instance to its node slot: endpoint, group
// membership and the interface hook. Construction and Rearm share it, so
// a rearmed instance touches the network exactly as a fresh one does.
func (m *Manager) bind() {
	m.node.SetEndpoint(m)
	m.nw.JoinTopics(m.node.ID, DiscoveryGroup, netsim.Topics(TopicSearch))
	m.node.OnInterfaceChange(m.ifaceHook)
}

// Rearm resets the Manager to its construction-time state for workspace
// reuse: the service returns to its initial snapshot, subscriptions and
// timers are cleared without touching the (already reset) kernel, and the
// node slot is re-bound.
func (m *Manager) Rearm() {
	m.sd = m.initial
	m.subs.Rearm()
	m.announcer.Rearm()
	m.bind()
}

// Start boots the device: the first announcement train leaves after the
// given delay and repeats every AnnouncePeriod.
func (m *Manager) Start(bootDelay sim.Duration) { m.announcer.Start(bootDelay) }

// ID reports the Manager's node ID.
func (m *Manager) ID() netsim.NodeID { return m.node.ID }

// SD returns the current service description snapshot.
func (m *Manager) SD() *discovery.Snapshot { return m.sd }

// Version reports the current service version.
func (m *Manager) Version() uint64 { return m.sd.Version() }

// Subscribers reports the current number of eventing subscriptions.
func (m *Manager) Subscribers() int { return m.subs.Len() }

// ChangeService applies an attribute mutation, bumps the version, and
// notifies every subscriber with an invalidation NOTIFY: "the Manager
// notifies the interested User that a change has occurred, whenever the
// service changes. Consecutive polling by the User retrieves the updated
// data." The change is copy-on-write: a new snapshot is built and every
// holder of the previous one keeps exactly what it had.
func (m *Manager) ChangeService(mutate func(attrs map[string]string)) {
	m.sd = m.sd.Mutate(mutate)
	m.subs.EachKey(func(user netsim.NodeID) {
		m.notify(user)
	})
}

// notify sends the invalidation over TCP. A REX is final: UPnP has no
// SRN2, so a notification that fails leaves the subscriber inconsistent
// until a purge-rediscovery technique runs (the §6.2 case study).
func (m *Manager) notify(user netsim.NodeID) {
	m.nw.SendTCPWith(m.cfg.TCP, m.node.ID, user, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.Invalidate, Manager: m.node.ID, N: m.sd.Version()}}, nil)
}

func (m *Manager) announcement() netsim.Outgoing {
	return netsim.Outgoing{Counted: true, Topic: TopicAlive, Packet: wire.Packet{Kind: wire.Announce,
		Role: wire.RoleManager, Lease: m.cfg.CacheLease}}
}

// Deliver implements netsim.Endpoint.
func (m *Manager) Deliver(msg *netsim.Message) {
	switch msg.Packet.Kind {
	case wire.Search:
		m.onSearch(msg.From, msg.Packet.Q)
	case wire.Get:
		m.onGet(msg)
	case wire.Subscribe:
		m.onSubscribe(msg)
	case wire.Renew:
		m.onRenew(msg)
	case wire.Bye:
		// Hardened retirement: the departing subscriber deregisters, so
		// its lease is evicted now instead of at expiry. Handled
		// unconditionally — baseline runs never send a Bye.
		m.subs.Drop(msg.From)
	}
}

// onSearch answers a matching M-SEARCH with a unicast response, which in
// SSDP carries the device location but not the description; the User
// fetches the SD with a GET.
func (m *Manager) onSearch(from netsim.NodeID, q *discovery.Query) {
	if !q.Matches(m.sd) {
		return
	}
	m.nw.SendUDP(m.node.ID, from, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.SearchReply, Manager: m.node.ID}})
}

// onGet serves the description over the requesting connection.
func (m *Manager) onGet(msg *netsim.Message) {
	m.respond(msg, netsim.Outgoing{Counted: true, Packet: m.carrying(wire.GetReply)})
}

// onSubscribe accepts the eventing subscription; the acceptance carries
// the current service state, as UPnP's initial event message does. That
// initial state is what makes PR4 recover consistency.
func (m *Manager) onSubscribe(msg *netsim.Message) {
	m.subs.Put(msg.From, struct{}{}, m.cfg.SubscriptionLease)
	m.respond(msg, netsim.Outgoing{Counted: true, Packet: m.carrying(wire.SubscribeAck)})
}

// carrying returns a packet of kind k carrying the current record.
func (m *Manager) carrying(k wire.Kind) wire.Packet {
	return wire.Packet{Kind: k, Manager: m.node.ID, SD: m.sd}
}

// onRenew extends a live subscription. A renewal for a purged
// subscription triggers PR4 when enabled: "the Manager requests purged
// Users to resubscribe"; with PR4 ablated the renewal is silently
// rejected. A hardened (strict) table also refuses a renewal racing the
// purge, so the User resubscribes.
func (m *Manager) onRenew(msg *netsim.Message) {
	if m.subs.Renew(msg.From, m.cfg.SubscriptionLease) {
		m.respond(msg, netsim.Outgoing{ // lease upkeep, excluded from update effort
			Packet: wire.Packet{Kind: wire.RenewAck, Manager: m.node.ID}})
		return
	}
	if m.cfg.Techniques.Has(core.PR4) {
		m.respond(msg, netsim.Outgoing{Counted: true,
			Packet: wire.Packet{Kind: wire.ResubscribeRequest, Manager: m.node.ID}})
	}
}

// respond answers over the inbound TCP connection when there is one,
// otherwise by UDP (search responses).
func (m *Manager) respond(msg *netsim.Message, out netsim.Outgoing) {
	if msg.Conn != nil {
		msg.Conn.Reply(out, nil)
		return
	}
	m.nw.SendUDP(m.node.ID, msg.From, out)
}
