package frodo

import (
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ManagerRole hosts one service. 3C/3D Managers delegate subscription
// upkeep to the Central (3-party); 300D Managers maintain subscriptions
// themselves (2-party) and are the only entities in the study
// implementing SRN2: "the Manager caches information on inconsistent
// Users and retries notification once a message from the inconsistent
// User is received."
type ManagerRole struct {
	nd *Node
	// sd is the current immutable description snapshot; initial is the
	// frozen construction-time state a workspace rearm returns to.
	sd      *discovery.Snapshot
	initial *discovery.Snapshot

	registered bool
	// regRetry sends the full record to regCentral, the Central this
	// registration attempt is addressed to; regRetryWait is the back-off
	// after an exhausted attempt.
	regRetry     core.Retry
	regCentral   netsim.NodeID
	regRetryWait *sim.Event
	renewTick    sim.Ticker
	// centralRetry pushes centralSD, the description of the last
	// repository update, to updCentral.
	centralRetry core.Retry
	updCentral   netsim.NodeID
	centralSD    *discovery.Snapshot
	centralAcked uint64
	regVersion   uint64

	// 2-party state (300D Managers).
	subs         discovery.LeaseTable[netsim.NodeID, struct{}]
	prop         *propagator
	inconsistent *core.InconsistentSet
}

// Static timer, lease and retry callbacks shared by every Manager role.
func managerRenewRegistration(x any) { x.(*ManagerRole).renewRegistration() }
func managerSubscriptionExpired(x any, user netsim.NodeID, _ struct{}) {
	x.(*ManagerRole).onSubscriptionExpired(user)
}
func managerSendRegister(x any, _ int) { x.(*ManagerRole).sendRegister() }
func managerRegisterExhausted(x any)   { x.(*ManagerRole).registerExhausted() }
func managerRegisterRetry(x any)       { x.(*ManagerRole).registerRetry() }
func managerSendCentralUpdate(x any, _ int) {
	m := x.(*ManagerRole)
	m.nd.nw.SendUDP(m.nd.n.ID, m.updCentral, netsim.Outgoing{Counted: true, Packet: wire.Packet{
		Kind: wire.Update, Manager: m.nd.n.ID, SD: m.centralSD, N: m.centralSD.Version(), ForRegistry: true}})
}

func newManagerRole(nd *Node, sd discovery.ServiceDescription) *ManagerRole {
	m := &ManagerRole{nd: nd, regCentral: netsim.NoNode, updCentral: netsim.NoNode}
	sd = sd.Clone()
	if sd.Attributes == nil {
		sd.Attributes = map[string]string{}
	}
	sd.Attributes[ClassAttr] = nd.class.String()
	m.initial = sd.Freeze()
	m.sd = m.initial
	m.subs.Init(nd.k, managerSubscriptionExpired, m)
	m.subs.SetStrict(nd.cfg.Hardened)
	retry := nd.cfg.notifyRetry()
	m.prop = newPropagator(nd.k, nd.nw, nd.n.ID, retry, m.onNotifyExhausted)
	m.inconsistent = core.NewInconsistentSet()
	m.renewTick.Init(nd.k, core.RenewInterval(core.RegistrationLease), managerRenewRegistration, m)
	m.regRetry.Init(nd.k, nd.cfg.controlRetry(), managerSendRegister, managerRegisterExhausted, m)
	m.centralRetry.Init(nd.k, retry, managerSendCentralUpdate, nil, m)
	return m
}

// rearm resets the role to its construction-time state for workspace
// reuse.
func (m *ManagerRole) rearm() {
	m.sd = m.initial
	m.registered = false
	m.regRetry.Rearm()
	m.regCentral = netsim.NoNode
	m.regRetryWait = nil
	m.renewTick.Rearm()
	m.centralRetry.Rearm()
	m.updCentral = netsim.NoNode
	m.centralSD = nil
	m.centralAcked = 0
	m.regVersion = 0
	m.subs.Rearm()
	m.prop.Rearm()
	m.inconsistent.Reset()
}

// ID reports the hosting node's ID.
func (m *ManagerRole) ID() netsim.NodeID { return m.nd.n.ID }

// TwoParty reports whether this Manager maintains its own subscriptions.
func (m *ManagerRole) TwoParty() bool { return m.nd.class == Class300D }

// record shares the current snapshot on the wire; the snapshot is
// immutable, so no copy is needed.
func (m *ManagerRole) record() discovery.ServiceRecord {
	return discovery.ServiceRecord{Manager: m.nd.n.ID, SD: m.sd}
}

// carrying returns a packet of kind k carrying the current record.
func (m *ManagerRole) carrying(k wire.Kind) wire.Packet {
	return wire.Packet{Kind: k, Manager: m.nd.n.ID, SD: m.sd}
}

// centralChanged registers with the (new) Central.
func (m *ManagerRole) centralChanged(central netsim.NodeID) {
	m.registered = false
	m.register()
}

// centralLost stops registration upkeep; the Node resumes discovery.
func (m *ManagerRole) centralLost() {
	m.registered = false
	m.regRetry.Stop()
	m.regRetryWait.Cancel()
	m.regRetryWait = nil // pooled events: drop after cancel, never cancel twice
	m.renewTick.Stop()
	m.centralRetry.Stop()
}

// register sends the full record with the control retransmission
// schedule. An exhausted schedule backs off for a node-announce period
// and tries again: the Central may be down only briefly.
func (m *ManagerRole) register() {
	central := m.nd.central
	if central == netsim.NoNode || central == m.nd.n.ID {
		return
	}
	m.regRetry.Stop()
	m.regRetryWait.Cancel()
	m.regRetryWait = nil
	m.regVersion = m.sd.Version()
	m.regCentral = central
	m.regRetry.Start()
}

// sendRegister transmits one registration attempt, carrying the record as
// it stands now.
func (m *ManagerRole) sendRegister() {
	p := m.carrying(wire.Register)
	p.Lease = core.RegistrationLease
	m.nd.nw.SendUDP(m.nd.n.ID, m.regCentral, netsim.Outgoing{Counted: true, Packet: p})
}

func (m *ManagerRole) registerExhausted() {
	m.regRetryWait = m.nd.k.AfterArg(nodeAnnouncePeriod, managerRegisterRetry, m)
}

func (m *ManagerRole) registerRetry() {
	// Pooled-event ownership: this event has fired; drop the reference
	// before re-registering so centralLost/register never Cancel a
	// recycled event.
	m.regRetryWait = nil
	if !m.registered && m.nd.central != netsim.NoNode {
		m.register()
	}
}

// onRegisterAck confirms the registration and starts lease upkeep. A
// registration carries the full record, so it confirms the Central's copy
// up to the registered version.
func (m *ManagerRole) onRegisterAck(from netsim.NodeID) {
	if from != m.nd.central {
		return
	}
	m.registered = true
	if m.regVersion > m.centralAcked {
		m.centralAcked = m.regVersion
	}
	m.regRetry.Stop()
	m.regRetryWait.Cancel()
	m.regRetryWait = nil
	m.renewTick.Start(m.renewTick.Period())
}

// renewRegistration refreshes the registration lease. A repository update
// the Central never acknowledged is retried here: FRODO owns its
// reliability at the discovery layer ("FRODO does not depend on the
// recovery abilities of lower layer protocols"), so the Manager keeps the
// Central's copy eventually consistent the same way SRN2 keeps Users
// consistent — by retrying when the periodic exchange comes around.
func (m *ManagerRole) renewRegistration() {
	central := m.nd.central
	if central == netsim.NoNode || !m.registered {
		return
	}
	if m.centralRetry.Active() {
		// Repository update still unacknowledged; the retry schedule is
		// already running, the renewal may proceed alongside.
		m.sendRenew(central)
		return
	}
	if m.centralSD == m.sd && m.centralAcked < m.sd.Version() {
		m.updateCentral()
		return
	}
	m.sendRenew(central)
}

func (m *ManagerRole) sendRenew(central netsim.NodeID) {
	m.nd.nw.SendUDP(m.nd.n.ID, central, netsim.Outgoing{ // lease upkeep, excluded from update effort
		Packet: wire.Packet{Kind: wire.Renew, Manager: m.nd.n.ID, Lease: core.RegistrationLease}})
}

// onRegistrationRenewAck confirms lease upkeep; nothing further needed.
func (m *ManagerRole) onRegistrationRenewAck(netsim.NodeID) {}

// onRenewError means the Central purged our registration: re-register in
// full so PR1 can notify the interested Users with current data.
func (m *ManagerRole) onRenewError(from netsim.NodeID) {
	if from != m.nd.central {
		return
	}
	m.registered = false
	m.register()
}

// ChangeService applies the mutation copy-on-write, bumps the version,
// and runs the notification process: the Central's repository copy is
// refreshed (this is the whole 3-party propagation path, and keeps
// PR1/queries correct in 2-party mode too), and 2-party subscribers are
// notified directly. Every notification shares the one new snapshot.
func (m *ManagerRole) ChangeService(mutate func(attrs map[string]string)) {
	m.sd = m.sd.Mutate(mutate)
	m.inconsistent.ResetVersion(m.sd.Version())
	m.updateCentral()
	if m.TwoParty() {
		rec := m.record()
		m.subs.EachKey(func(user netsim.NodeID) {
			m.prop.Notify(user, rec, m.sd.Version())
		})
	}
}

// updateCentral pushes the new description to the Central's repository
// with the notification retransmission schedule (SRN1/SRC1).
func (m *ManagerRole) updateCentral() {
	central := m.nd.central
	if central == netsim.NoNode || central == m.nd.n.ID {
		return
	}
	m.centralRetry.Stop()
	m.centralSD = m.sd
	m.updCentral = central
	m.centralRetry.Start()
}

// onCentralUpdateAck stops the repository-update retransmission.
func (m *ManagerRole) onCentralUpdateAck(version uint64) {
	if version > m.centralAcked {
		m.centralAcked = version
	}
	if m.centralSD == nil || version >= m.centralSD.Version() {
		m.centralRetry.Stop()
	}
}

// onNotifyExhausted is the SRN1→SRN2 hand-off: the schedule gave up, so
// remember the inconsistent User and retry when it next speaks to us.
func (m *ManagerRole) onNotifyExhausted(user netsim.NodeID, rec discovery.ServiceRecord) {
	if m.nd.cfg.Techniques.Has(core.SRN2) {
		m.inconsistent.Mark(user, rec.SD.Version())
	}
}

// onSubscribe accepts a 2-party subscription; the acknowledgement carries
// current state (PR4 recovery restores consistency through it).
func (m *ManagerRole) onSubscribe(from netsim.NodeID, lease sim.Duration) {
	if lease <= 0 {
		lease = core.SubscriptionLease
	}
	m.subs.Put(from, struct{}{}, lease)
	m.nd.nw.SendUDP(m.nd.n.ID, from, netsim.Outgoing{Counted: true, Packet: m.carrying(wire.SubscribeAck)})
}

// onSubscriptionRenew extends a live subscription and, crucially, runs
// SRN2: a renewal from a User marked inconsistent triggers a fresh
// notification attempt. A renewal for a purged subscription triggers PR4,
// and so, on a hardened (strict) table, does one racing the purge.
func (m *ManagerRole) onSubscriptionRenew(from netsim.NodeID, lease sim.Duration) {
	if lease <= 0 {
		lease = core.SubscriptionLease
	}
	if m.subs.Renew(from, lease) {
		m.nd.nw.SendUDP(m.nd.n.ID, from, netsim.Outgoing{ // lease upkeep, excluded from update effort
			Packet: wire.Packet{Kind: wire.RenewAck, Manager: m.nd.n.ID}})
		if m.inconsistent.ShouldRetry(from) {
			m.prop.Notify(from, m.record(), m.sd.Version())
		}
		return
	}
	if !m.nd.cfg.Techniques.Has(core.PR4) {
		return
	}
	m.nd.nw.SendUDP(m.nd.n.ID, from, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.ResubscribeRequest, Manager: m.nd.n.ID}})
}

// onSubscriberAck ends the retransmission schedule and clears SRN2 state.
func (m *ManagerRole) onSubscriberAck(from netsim.NodeID, version uint64) {
	m.prop.Ack(from, version)
	m.inconsistent.AckVersion(from, version)
}

// onBye evicts a departing 2-party subscriber now instead of at lease
// expiry: the retiring User said goodbye, so no notification retry or
// SRN2 state should outlive it (the hunted zombie class).
func (m *ManagerRole) onBye(from netsim.NodeID) {
	m.subs.Drop(from)
	m.onSubscriptionExpired(from)
}

// onSubscriptionExpired forgets the User entirely: SRN2 state is only
// kept while the subscription is valid.
func (m *ManagerRole) onSubscriptionExpired(user netsim.NodeID) {
	m.prop.Cancel(user)
	m.inconsistent.Forget(user)
}

// onMulticastSearch answers a matching multicast query directly (PR5a).
func (m *ManagerRole) onMulticastSearch(from netsim.NodeID, q *discovery.Query) {
	if !q.Matches(m.sd) {
		return
	}
	m.nd.nw.SendUDP(m.nd.n.ID, from, netsim.Outgoing{Counted: true, Packet: m.carrying(wire.SearchReply)})
}

// onGet serves the current description (SRC2 missed-update requests).
func (m *ManagerRole) onGet(from netsim.NodeID) {
	m.nd.nw.SendUDP(m.nd.n.ID, from, netsim.Outgoing{Counted: true, Packet: m.carrying(wire.GetReply)})
}
