package jini

import (
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Manager is a Jini service provider. It discovers lookup services
// through their announcements, registers its service with each of them,
// renews the registration leases, and sends updated descriptions when the
// service changes.
type Manager struct {
	cfg  Config
	node *netsim.Node
	nw   *netsim.Network
	k    *sim.Kernel

	// sd is the current immutable description snapshot; initial is the
	// frozen construction-time state a workspace rearm returns to.
	sd      *discovery.Snapshot
	initial *discovery.Snapshot

	// registries tracks discovered lookup services; the lease is
	// refreshed by their announcements.
	registries discovery.LeaseTable[netsim.NodeID, struct{}]
	renewTick  sim.Ticker
}

// managerRenewAll is the static renewal-ticker callback shared by every
// Jini Manager.
func managerRenewAll(x any) { x.(*Manager).renewAll() }

// NewManager attaches a Manager to a node.
func NewManager(node *netsim.Node, cfg Config, sd discovery.ServiceDescription) *Manager {
	m := &Manager{cfg: cfg, node: node, nw: node.Network(), k: node.Kernel()}
	m.initial = sd.Freeze()
	m.sd = m.initial
	m.registries.Init(m.k, nil, nil)
	m.renewTick.Init(m.k, core.RenewInterval(core.RegistrationLease), managerRenewAll, m)
	m.bind()
	return m
}

// bind attaches the instance to its node slot; construction and Rearm
// share it.
func (m *Manager) bind() {
	m.node.SetEndpoint(m)
	m.nw.JoinTopics(m.node.ID, DiscoveryGroup, netsim.Topics(TopicAnnounce))
}

// Rearm resets the Manager to its construction-time state for workspace
// reuse.
func (m *Manager) Rearm() {
	m.sd = m.initial
	m.registries.Rearm()
	m.renewTick.Rearm()
	m.bind()
}

// Start boots the Manager; it waits passively for Registry announcements.
func (m *Manager) Start(bootDelay sim.Duration) {
	m.k.AfterArg(bootDelay, managerBoot, m)
}

// managerBoot is the static boot callback shared by every Jini Manager.
func managerBoot(x any) {
	m := x.(*Manager)
	m.renewTick.Start(m.renewTick.Period())
}

// ID reports the Manager's node ID.
func (m *Manager) ID() netsim.NodeID { return m.node.ID }

// ChangeService mutates the service copy-on-write, bumps the version, and
// updates every known Registry over TCP. A REX leaves that Registry stale
// until the registration lease cycle heals it (re-registration after an
// error).
func (m *Manager) ChangeService(mutate func(attrs map[string]string)) {
	m.sd = m.sd.Mutate(mutate)
	m.registries.EachKey(func(reg netsim.NodeID) {
		m.sendUpdate(reg)
	})
}

func (m *Manager) sendUpdate(reg netsim.NodeID) {
	m.nw.SendTCPWith(netsim.TCPTransport(m.cfg.Hardened), m.node.ID, reg, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.Update, Manager: m.node.ID, SD: m.sd, N: m.sd.Version()}}, nil)
}

// Deliver implements netsim.Endpoint.
func (m *Manager) Deliver(msg *netsim.Message) {
	switch msg.Packet.Kind {
	case wire.Announce:
		m.onAnnounce(msg.From, &msg.Packet)
	case wire.RenewError:
		// The Registry purged our registration: re-register with the
		// current description (PR1 — the Registry will notify interested
		// Users).
		m.register(msg.From)
	case wire.RegisterAck, wire.RenewAck:
		// Lease bookkeeping only; nothing to do.
	}
}

// onAnnounce refreshes a known Registry's cache entry or registers with a
// newly discovered one.
func (m *Manager) onAnnounce(from netsim.NodeID, a *wire.Packet) {
	if a.Role != wire.RoleRegistry {
		return
	}
	lease := a.Lease
	if lease <= 0 {
		lease = cacheLease
	}
	if m.registries.Renew(from, lease) {
		return
	}
	m.registries.Put(from, struct{}{}, lease)
	m.register(from)
}

// register sends the full service record over TCP.
func (m *Manager) register(reg netsim.NodeID) {
	m.nw.SendTCPWith(netsim.TCPTransport(m.cfg.Hardened), m.node.ID, reg, netsim.Outgoing{Counted: true, Packet: wire.Packet{
		Kind: wire.Register, Manager: m.node.ID, SD: m.sd, Lease: core.RegistrationLease}}, nil)
}

// renewAll refreshes the registration lease at every known Registry.
// Renewals carry no service data: a Registry holding a stale description
// stays stale until it purges the registration and the Manager
// re-registers — the Jini weakness the paper contrasts with FRODO's SRN2.
func (m *Manager) renewAll() {
	m.registries.EachKey(func(reg netsim.NodeID) {
		m.nw.SendTCPWith(netsim.TCPTransport(m.cfg.Hardened), m.node.ID, reg, netsim.Outgoing{ // lease upkeep, excluded from update effort
			Packet: wire.Packet{Kind: wire.Renew, Manager: m.node.ID, Lease: core.RegistrationLease}}, nil)
	})
}
