package frodo

import (
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
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
	// centralRetry pushes centralOut, the boxed repository update for
	// centralVersion, to updCentral.
	centralRetry   core.Retry
	updCentral     netsim.NodeID
	centralOut     netsim.Outgoing
	centralVersion uint64
	centralAcked   uint64
	regVersion     uint64

	// 2-party state (300D Managers).
	subs         discovery.LeaseTable[netsim.NodeID, struct{}]
	prop         *propagator
	inconsistent *core.InconsistentSet

	// Critical-update state (SRC2).
	history *core.UpdateHistory

	// ackOut and replyOut cache the boxed subscription acknowledgement
	// and multicast search reply for ackVersion and replyVersion: their
	// content only changes when the service does, and 2-party boots send
	// one per subscriber attempt and per early search.
	ackOut       netsim.Outgoing
	ackVersion   uint64
	replyOut     netsim.Outgoing
	replyVersion uint64
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
	m.nd.nw.SendUDP(m.nd.n.ID, m.updCentral, m.centralOut)
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
	retry := nd.cfg.NotifyRetry
	if nd.cfg.CriticalUpdates {
		retry = core.FrodoCriticalRetry
	}
	m.prop = newPropagator(nd.k, nd.nw, nd.n.ID, retry, m.onNotifyExhausted)
	m.inconsistent = core.NewInconsistentSet()
	m.history = core.NewUpdateHistory()
	m.renewTick.Init(nd.k, core.RenewInterval(nd.cfg.RegistrationLease), managerRenewRegistration, m)
	m.regRetry.Init(nd.k, nd.cfg.ControlRetry, managerSendRegister, managerRegisterExhausted, m)
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
	m.centralOut = netsim.Outgoing{}
	m.centralVersion = 0
	m.centralAcked = 0
	m.regVersion = 0
	m.subs.Rearm()
	m.prop.Rearm()
	m.inconsistent.Reset()
	m.history.Reset()
	m.ackOut = netsim.Outgoing{}
	m.ackVersion = 0
	m.replyOut = netsim.Outgoing{}
	m.replyVersion = 0
}

// subscribeAck returns the (cached) boxed acknowledgement carrying the
// current service state.
func (m *ManagerRole) subscribeAck() netsim.Outgoing {
	if m.ackOut.Payload == nil || m.ackVersion != m.sd.Version() {
		m.ackOut = netsim.Outgoing{
			Kind:    discovery.Kind(discovery.SubscribeAck{}),
			Counted: true,
			Payload: discovery.SubscribeAck{Manager: m.nd.n.ID, Rec: m.record()},
		}
		m.ackVersion = m.sd.Version()
	}
	return m.ackOut
}

// ID reports the hosting node's ID.
func (m *ManagerRole) ID() netsim.NodeID { return m.nd.n.ID }

// SD returns the current service description snapshot.
func (m *ManagerRole) SD() *discovery.Snapshot { return m.sd }

// Version reports the current service version.
func (m *ManagerRole) Version() uint64 { return m.sd.Version() }

// Registered reports whether the Manager believes it is registered.
func (m *ManagerRole) Registered() bool { return m.registered }

// Subscribers reports the number of live 2-party subscriptions.
func (m *ManagerRole) Subscribers() int { return m.subs.Len() }

// TwoParty reports whether this Manager maintains its own subscriptions.
func (m *ManagerRole) TwoParty() bool { return m.nd.class == Class300D }

// record shares the current snapshot on the wire; the snapshot is
// immutable, so no copy is needed.
func (m *ManagerRole) record() discovery.ServiceRecord {
	return discovery.ServiceRecord{Manager: m.nd.n.ID, SD: m.sd}
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
	m.nd.nw.SendUDP(m.nd.n.ID, m.regCentral, netsim.Outgoing{
		Kind:    discovery.Kind(discovery.Register{}),
		Counted: true,
		Payload: discovery.Register{Rec: m.record(), Lease: m.nd.cfg.RegistrationLease},
	})
}

func (m *ManagerRole) registerExhausted() {
	m.regRetryWait = m.nd.k.AfterArg(m.nd.cfg.NodeAnnouncePeriod, managerRegisterRetry, m)
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
	if m.centralVersion != 0 && m.centralVersion == m.sd.Version() && m.centralAcked < m.sd.Version() {
		m.updateCentral()
		return
	}
	m.sendRenew(central)
}

func (m *ManagerRole) sendRenew(central netsim.NodeID) {
	m.nd.nw.SendUDP(m.nd.n.ID, central, netsim.Outgoing{
		Kind:    discovery.Kind(discovery.Renew{}),
		Counted: false, // lease upkeep, excluded from update effort
		Payload: discovery.Renew{Manager: m.nd.n.ID, Lease: m.nd.cfg.RegistrationLease},
	})
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
	if m.nd.cfg.CriticalUpdates {
		m.history.Record(m.record())
	}
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
	m.centralVersion = m.sd.Version()
	m.updCentral = central
	m.centralOut = netsim.Outgoing{
		Kind:    discovery.Kind(discovery.Update{}),
		Counted: true,
		Payload: discovery.Update{Rec: m.record(), Seq: m.sd.Version(), ForRegistry: true},
	}
	m.centralRetry.Start()
}

// onCentralUpdateAck stops the repository-update retransmission.
func (m *ManagerRole) onCentralUpdateAck(p discovery.UpdateAck) {
	if p.Version > m.centralAcked {
		m.centralAcked = p.Version
	}
	if p.Version >= m.centralVersion {
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
func (m *ManagerRole) onSubscribe(from netsim.NodeID, p discovery.Subscribe) {
	lease := p.Lease
	if lease <= 0 {
		lease = m.nd.cfg.SubscriptionLease
	}
	m.subs.Put(from, struct{}{}, lease)
	if m.nd.cfg.CriticalUpdates {
		m.history.Interested(from)
	}
	m.nd.nw.SendUDP(m.nd.n.ID, from, m.subscribeAck())
}

// onSubscriptionRenew extends a live subscription and, crucially, runs
// SRN2: a renewal from a User marked inconsistent triggers a fresh
// notification attempt. A renewal for a purged subscription triggers PR4,
// and so, on a hardened (strict) table, does one racing the purge.
func (m *ManagerRole) onSubscriptionRenew(from netsim.NodeID, p discovery.Renew) {
	lease := p.Lease
	if lease <= 0 {
		lease = m.nd.cfg.SubscriptionLease
	}
	if m.subs.Renew(from, lease) {
		m.nd.nw.SendUDP(m.nd.n.ID, from, netsim.Outgoing{
			Kind:    discovery.Kind(discovery.RenewAck{}),
			Counted: false, // lease upkeep, excluded from update effort
			Payload: discovery.RenewAck{Manager: m.nd.n.ID},
		})
		if m.inconsistent.ShouldRetry(from) {
			m.prop.Notify(from, m.record(), m.sd.Version())
		}
		return
	}
	if !m.nd.cfg.Techniques.Has(core.PR4) {
		return
	}
	m.nd.nw.SendUDP(m.nd.n.ID, from, netsim.Outgoing{
		Kind:    discovery.Kind(discovery.ResubscribeRequest{}),
		Counted: true,
		Payload: discovery.ResubscribeRequest{Manager: m.nd.n.ID},
	})
}

// onSubscriberAck ends the retransmission schedule and clears SRN2 state.
func (m *ManagerRole) onSubscriberAck(from netsim.NodeID, p discovery.UpdateAck) {
	m.prop.Ack(from, p.Version)
	m.inconsistent.AckVersion(from, p.Version)
	if m.nd.cfg.CriticalUpdates {
		m.history.Confirm(from, p.Version)
	}
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
	if m.nd.cfg.CriticalUpdates {
		m.history.Disinterested(user)
	}
}

// onMulticastSearch answers a matching multicast query directly (PR5a).
func (m *ManagerRole) onMulticastSearch(from netsim.NodeID, s discovery.Search) {
	if !s.Q.Matches(m.sd) {
		return
	}
	if m.replyOut.Payload == nil || m.replyVersion != m.sd.Version() {
		m.replyOut = netsim.Outgoing{
			Kind:    discovery.Kind(discovery.SearchReply{}),
			Counted: true,
			Payload: discovery.SearchReply{Recs: []discovery.ServiceRecord{m.record()}},
		}
		m.replyVersion = m.sd.Version()
	}
	m.nd.nw.SendUDP(m.nd.n.ID, from, m.replyOut)
}

// onGet serves the current description (SRC2 missed-update requests).
func (m *ManagerRole) onGet(from netsim.NodeID) {
	m.nd.nw.SendUDP(m.nd.n.ID, from, netsim.Outgoing{
		Kind:    discovery.Kind(discovery.GetReply{}),
		Counted: true,
		Payload: discovery.GetReply{Rec: m.record()},
	})
}
