package jini

import (
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// subKey identifies one event subscription: a User listening for changes
// to one Manager's service.
type subKey struct {
	user    netsim.NodeID
	manager netsim.NodeID
}

// Registry is a Jini lookup service. It stores service registrations
// under lease, answers queries, and propagates Manager updates to
// subscribed Users as remote events over TCP.
type Registry struct {
	cfg  Config
	node *netsim.Node
	nw   *netsim.Network
	k    *sim.Kernel

	announcer *core.Announcer

	// registrations maps Manager to its registered record.
	registrations discovery.LeaseTable[netsim.NodeID, discovery.ServiceRecord]
	// subs holds event subscriptions with their per-registration event
	// sequence counters (Jini numbers remote events per event
	// registration — the protocol's SRC2 hook).
	subs discovery.LeaseTable[subKey, *subState]
	// notifyReqs holds requests for notification of future service
	// registrations, keyed by User.
	notifyReqs discovery.LeaseTable[netsim.NodeID, discovery.Query]
}

// subState carries one event registration's sequence counter.
type subState struct {
	seq uint64
}

// NewRegistry attaches a lookup service to a node.
func NewRegistry(node *netsim.Node, cfg Config) *Registry {
	r := &Registry{cfg: cfg, node: node, nw: node.Network(), k: node.Kernel()}
	r.registrations.Init(r.k, nil, nil)
	r.subs.Init(r.k, nil, nil)
	r.notifyReqs.Init(r.k, nil, nil)
	r.registrations.SetStrict(cfg.Hardened)
	r.subs.SetStrict(cfg.Hardened)
	r.notifyReqs.SetStrict(cfg.Hardened)
	announceOut := netsim.Outgoing{Counted: true, Topic: TopicAnnounce, Packet: wire.Packet{
		Kind: wire.Announce, Role: wire.RoleRegistry, Lease: cfg.CacheLease}}
	r.announcer = core.NewAnnouncer(r.nw, node.ID, DiscoveryGroup,
		cfg.AnnouncePeriod, cfg.AnnounceCopies, func() netsim.Outgoing { return announceOut })
	r.bind()
	return r
}

// bind attaches the instance to its node slot; construction and Rearm
// share it.
func (r *Registry) bind() {
	r.node.SetEndpoint(r)
	r.nw.JoinTopics(r.node.ID, DiscoveryGroup, netsim.Topics())
}

// Rearm resets the lookup service to its construction-time state for
// workspace reuse.
func (r *Registry) Rearm() {
	r.registrations.Rearm()
	r.subs.Rearm()
	r.notifyReqs.Rearm()
	r.announcer.Rearm()
	r.bind()
}

// Start boots the lookup service.
func (r *Registry) Start(bootDelay sim.Duration) { r.announcer.Start(bootDelay) }

// ID reports the Registry's node ID.
func (r *Registry) ID() netsim.NodeID { return r.node.ID }

// Registered reports whether the Manager currently holds a registration.
func (r *Registry) Registered(manager netsim.NodeID) bool {
	_, ok := r.registrations.Get(manager)
	return ok
}

// Subscribers reports the number of live event subscriptions.
func (r *Registry) Subscribers() int { return r.subs.Len() }

// Deliver implements netsim.Endpoint.
func (r *Registry) Deliver(msg *netsim.Message) {
	p := &msg.Packet
	switch p.Kind {
	case wire.Register:
		r.onRegister(msg, p)
	case wire.Update:
		r.onUpdate(msg, p.Record())
	case wire.Search:
		r.onSearch(msg, p.Q)
	case wire.Subscribe:
		r.onSubscribe(msg, p)
	case wire.Renew:
		r.onRenew(msg, p)
	case wire.Bye:
		r.onBye(msg.From)
	}
}

// onBye evicts every lease the departing node holds — its registration
// if it was a Manager, its notification request and event subscriptions
// if it was a User. Only hardened nodes send Byes; handling them is
// unconditional (baseline runs never see one).
func (r *Registry) onBye(from netsim.NodeID) {
	r.registrations.Drop(from)
	r.notifyReqs.Drop(from)
	r.subs.EachKey(func(k subKey) {
		if k.user == from {
			r.subs.Drop(k)
		}
	})
}

// onRegister stores the service and — PR1 — notifies Users whose
// notification requests match a *new* registration. Jini's anomaly is
// preserved: a request made after the Manager already registered receives
// nothing until the Manager re-registers.
func (r *Registry) onRegister(msg *netsim.Message, p *wire.Packet) {
	prev, existed := r.registrations.Get(p.Manager)
	lease := p.Lease
	if lease <= 0 {
		lease = r.cfg.RegistrationLease
	}
	r.registrations.Put(p.Manager, p.Record(), lease)
	r.reply(msg, netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.RegisterAck}})
	isNews := !existed || prev.SD.Version() != p.SD.Version()
	if isNews && r.cfg.Techniques.Has(core.PR1) {
		r.notifyRegistration(p.Record())
	}
}

// notifyRegistration sends the newly registered record to every User with
// a matching notification request and to subscribers of that Manager.
// Subscribers get a sequenced event; request-only Users get an
// unsequenced one (no event registration exists yet to number it).
func (r *Registry) notifyRegistration(rec discovery.ServiceRecord) {
	sequenced := map[netsim.NodeID]bool{}
	r.subs.Each(func(k subKey, s *subState) {
		if k.manager == rec.Manager {
			sequenced[k.user] = true
			s.seq++
			r.sendEvent(k.user, rec, s.seq)
		}
	})
	r.notifyReqs.Each(func(user netsim.NodeID, q discovery.Query) {
		if q.Matches(rec.SD) && !sequenced[user] {
			r.sendEvent(user, rec, 0)
		}
	})
}

// onUpdate refreshes the stored record (the registration lease is not
// extended — updates are not renewals) and propagates the event to
// subscribers. The acknowledgement to the Manager is Jini's application-
// level ack ("The Manager sends an update to the Registry, and receives
// an acknowledgement").
func (r *Registry) onUpdate(msg *netsim.Message, rec discovery.ServiceRecord) {
	if !r.registrations.Update(rec.Manager, rec) {
		if r.cfg.Hardened {
			// Hardened registries never heal the repository silently: the
			// registration lease expired, so the Manager must re-register
			// on the wire (its RenewError handler does exactly that).
			// A silent Put here re-creates a lease no Register message
			// ever established, which is how the hunted lease-purge
			// violations diverged holder state from the oracle's ledger.
			r.renewError(msg, rec.Manager)
			return
		}
		// Unknown manager: treat as a registration so the system heals.
		r.registrations.Put(rec.Manager, rec, r.cfg.RegistrationLease)
	}
	r.reply(msg, netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.UpdateAck,
		Manager: rec.Manager, N: rec.SD.Version(), Role: wire.RoleRegistry}})
	r.subs.Each(func(k subKey, s *subState) {
		if k.manager == rec.Manager {
			s.seq++
			r.sendEvent(k.user, rec, s.seq)
		}
	})
}

// sendEvent delivers one remote event over TCP. A REX is final: Jini has
// no SRN2, so the event is lost while the subscription lives.
func (r *Registry) sendEvent(user netsim.NodeID, rec discovery.ServiceRecord, seq uint64) {
	r.nw.SendTCPWith(r.cfg.TCP, r.node.ID, user, netsim.Outgoing{Counted: true, Packet: wire.Packet{
		Kind: wire.Update, Manager: rec.Manager, SD: rec.SD, N: seq}}, nil)
}

// onSearch answers a unicast query with the matching registrations.
func (r *Registry) onSearch(msg *netsim.Message, q *discovery.Query) {
	recs := []discovery.ServiceRecord{} // a list, even when empty (wire.Packet.Recs)
	r.registrations.Each(func(_ netsim.NodeID, rec discovery.ServiceRecord) {
		if q.Matches(rec.SD) {
			recs = append(recs, rec)
		}
	})
	r.reply(msg, netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.SearchReply, Recs: recs}})
}

// onSubscribe stores a notification request (Manager == NoNode) or an
// event subscription. Jini event registration does not deliver current
// state — that is exactly why Users must query (PR2). Resubscribing
// restarts the lease even on a strict table.
func (r *Registry) onSubscribe(msg *netsim.Message, p *wire.Packet) {
	lease := p.Lease
	if lease <= 0 {
		lease = r.cfg.SubscriptionLease
	}
	if p.Manager == netsim.NoNode {
		q := discovery.Query{}
		if p.Q != nil {
			q = *p.Q
		}
		r.notifyReqs.Put(msg.From, q, lease)
	} else {
		key := subKey{user: msg.From, manager: p.Manager}
		s, exists := r.subs.Get(key)
		if !exists {
			s = &subState{}
		}
		r.subs.Put(key, s, lease)
	}
	r.reply(msg, netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.SubscribeAck, Manager: p.Manager}})
}

// onRenew extends a Manager's registration (Renew.Manager == sender) or a
// User's leases (notification request plus any event subscriptions). A
// renewal with nothing live behind it gets Jini's PR3 answer: a bare
// error that sends the node back through discovery. Hardened (strict)
// tables also refuse renewals racing the purge.
func (r *Registry) onRenew(msg *netsim.Message, p *wire.Packet) {
	lease := p.Lease
	if lease <= 0 {
		lease = r.cfg.SubscriptionLease
	}
	if p.Manager == msg.From {
		if r.registrations.Renew(msg.From, lease) {
			r.ack(msg, p.Manager)
			return
		}
		r.renewError(msg, p.Manager)
		return
	}
	alive := r.notifyReqs.Renew(msg.From, lease)
	r.subs.Each(func(k subKey, _ *subState) {
		if k.user == msg.From && r.subs.Renew(k, lease) {
			alive = true
		}
	})
	if alive {
		r.ack(msg, p.Manager)
		return
	}
	r.renewError(msg, p.Manager)
}

func (r *Registry) ack(msg *netsim.Message, manager netsim.NodeID) {
	r.reply(msg, netsim.Outgoing{ // lease upkeep, excluded from update effort
		Packet: wire.Packet{Kind: wire.RenewAck, Manager: manager}})
}

func (r *Registry) renewError(msg *netsim.Message, manager netsim.NodeID) {
	if !r.cfg.Techniques.Has(core.PR3) {
		return
	}
	r.reply(msg, netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.RenewError, Manager: manager}})
}

// reply answers over the inbound TCP connection (all Jini unicast rides
// on TCP).
func (r *Registry) reply(msg *netsim.Message, out netsim.Outgoing) {
	if msg.Conn != nil {
		msg.Conn.Reply(out, nil)
		return
	}
	r.nw.SendUDP(r.node.ID, msg.From, out)
}
