package frodo

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// subKey identifies one 3-party subscription at the Central.
type subKey struct {
	user    netsim.NodeID
	manager netsim.NodeID
}

// RegistryRole is the 300D Registry capability. It is dormant until the
// node wins the Central election (or takes over as Backup), after which
// it is "the repository for service descriptions [that] also actively
// monitors the system for new and defunct nodes" (§3).
type RegistryRole struct {
	nd *Node

	active bool

	// Backup machinery: when we are the Central, backupID is the node we
	// appointed; when we are the Backup, backupRecs is the synced state
	// and backupMonitor watches the Central's announcements.
	backup        bool
	backupID      netsim.NodeID
	backupRecs    []discovery.ServiceRecord
	backupMonitor sim.Deadline

	announcer *core.Announcer

	registrations discovery.LeaseTable[netsim.NodeID, discovery.ServiceRecord]
	subs          discovery.LeaseTable[subKey, struct{}]
	// provisional marks registrations seeded from Backup sync rather than
	// established by a Register on the wire (hardened only). They serve
	// queries, but renewals are refused until the Manager re-registers:
	// the lease the Backup inherited was granted by the old Central, and a
	// strict holder does not extend leases it never granted.
	provisional map[netsim.NodeID]bool
	// interests holds standing queries from Users ("Users receive
	// notifications of new service registrations by explicitly
	// requesting for service notification, when they first establish
	// contact with the Registry"); unlike Jini, FRODO also serves
	// existing registrations via the immediate query reply.
	interests discovery.LeaseTable[netsim.NodeID, discovery.Query]

	// Search-reply records, content-addressed: matches are collected into
	// a reusable scratch and only copied afresh when the match set
	// differs from the last reply's. At boot every User queries for the
	// same requirement against a stable repository, so one record slice,
	// shared read-only, serves the whole population. searchRecs is
	// immutable once sent, and non-nil (a list) once built.
	searchScratch []discovery.ServiceRecord
	searchRecs    []discovery.ServiceRecord

	prop *propagator
	// inconsistent is SRN2 run by the Central on behalf of the
	// resource-lean Managers whose subscriptions it maintains ("the task
	// of maintaining subscriptions for resource-lean Managers is
	// delegated to the Central"): Users whose notification exhausted the
	// SRN1 schedule are retried when their renewal arrives. Keyed per
	// Manager, since each service versions independently.
	inconsistent map[netsim.NodeID]*core.InconsistentSet
}

// Static timer and lease callbacks shared by every Registry capability.
func registryTakeover(x any) { x.(*RegistryRole).takeover() }
func registryRegistrationExpired(x any, manager netsim.NodeID, _ discovery.ServiceRecord) {
	x.(*RegistryRole).onRegistrationExpired(manager)
}
func registrySubscriptionExpired(x any, k subKey, _ struct{}) {
	x.(*RegistryRole).onSubscriptionExpired(k)
}

func newRegistryRole(nd *Node) *RegistryRole {
	r := &RegistryRole{nd: nd, backupID: netsim.NoNode}
	r.backupMonitor.Init(nd.k, registryTakeover, r)
	r.registrations.Init(nd.k, registryRegistrationExpired, r)
	r.subs.Init(nd.k, registrySubscriptionExpired, r)
	r.interests.Init(nd.k, nil, nil)
	r.registrations.SetStrict(nd.cfg.Hardened)
	r.subs.SetStrict(nd.cfg.Hardened)
	r.interests.SetStrict(nd.cfg.Hardened)
	announceOut := netsim.Outgoing{Counted: true, Packet: nd.registryAnnounce()}
	r.announcer = core.NewAnnouncer(nd.nw, nd.n.ID, DiscoveryGroup,
		nd.cfg.AnnouncePeriod, core.FrodoAnnounceCopies, func() netsim.Outgoing { return announceOut })
	r.inconsistent = map[netsim.NodeID]*core.InconsistentSet{}
	r.provisional = map[netsim.NodeID]bool{}
	r.prop = newPropagator(nd.k, nd.nw, nd.n.ID, nd.cfg.notifyRetry(), r.onNotifyExhausted)
	return r
}

// rearm resets the capability to its construction-time state for
// workspace reuse. Pooled SRN2 sets are kept (emptied) so re-elected
// Centrals reuse their capacity.
func (r *RegistryRole) rearm() {
	r.active = false
	r.backup = false
	r.backupID = netsim.NoNode
	r.backupRecs = nil
	r.backupMonitor.Rearm()
	r.announcer.Rearm()
	r.registrations.Rearm()
	r.subs.Rearm()
	r.interests.Rearm()
	r.prop.Rearm()
	for _, set := range r.inconsistent {
		set.Reset()
	}
	clear(r.provisional)
	r.searchRecs = nil
}

// onNotifyExhausted hands an undeliverable notification to SRN2.
func (r *RegistryRole) onNotifyExhausted(user netsim.NodeID, rec discovery.ServiceRecord) {
	if !r.nd.cfg.Techniques.Has(core.SRN2) {
		return
	}
	r.inconsistentFor(rec.Manager).Mark(user, rec.SD.Version())
}

// inconsistentFor returns (creating on demand) the SRN2 set of one
// Manager's service.
func (r *RegistryRole) inconsistentFor(manager netsim.NodeID) *core.InconsistentSet {
	set, ok := r.inconsistent[manager]
	if !ok {
		set = core.NewInconsistentSet()
		r.inconsistent[manager] = set
	}
	return set
}

// activate turns the capability on: this node is now the Central.
func (r *RegistryRole) activate() {
	if r.active {
		return
	}
	r.active = true
	r.nd.rec.central = true
	r.backup = false
	r.backupMonitor.Clear()
	r.nd.central = r.nd.n.ID
	r.nd.centralPower = r.nd.power
	r.nd.centralLease.Clear()
	r.nd.nodeAnnounce.Stop()
	// Seed the repository with state synced while we were the Backup.
	for _, rec := range r.backupRecs {
		if _, ok := r.registrations.Get(rec.Manager); !ok {
			r.registrations.Put(rec.Manager, rec, core.RegistrationLease)
			if r.nd.cfg.Hardened {
				r.provisional[rec.Manager] = true
			}
		}
	}
	r.backupRecs = nil
	r.announcer.AnnounceNow()
	r.announcer.Start(r.nd.cfg.AnnouncePeriod)
	r.maybeAppointBackup()
}

// deactivate demotes the node (a stronger Central claimed the role). The
// tables are kept: if the node is ever re-elected it resumes with its
// last known state, like a device whose interfaces failed. Hardened
// demotion retracts the claim on the wire: peers (and the verifier's
// claim ledger) would otherwise carry the stale Central until its
// announce lease ran out.
func (r *RegistryRole) deactivate() {
	if !r.active {
		return
	}
	r.active = false
	r.nd.rec.central = false
	r.announcer.Stop()
	r.prop.CancelAll()
	if r.nd.cfg.Hardened {
		r.nd.nw.Multicast(r.nd.n.ID, DiscoveryGroup, netsim.Outgoing{Counted: true,
			Packet: wire.Packet{Kind: wire.Bye, Role: wire.RoleRegistry}}, 1)
	}
}

// onBye evicts every lease the departing node holds: its registration if
// it was a Manager, its standing interest and 3-party subscriptions if it
// was a User. Explicit cleanup mirrors the expiry cascades Drop skips.
func (r *RegistryRole) onBye(from netsim.NodeID) {
	r.registrations.Drop(from)
	delete(r.provisional, from)
	r.interests.Drop(from)
	r.subs.EachKey(func(k subKey) {
		if k.user != from {
			return
		}
		r.subs.Drop(k)
		r.prop.Cancel(k.user)
		if set, ok := r.inconsistent[k.manager]; ok {
			set.Forget(k.user)
		}
	})
}

// quiesce disarms every timer and lease the capability holds, for node
// retirement. Only valid on a node that is neither Central nor Backup.
func (r *RegistryRole) quiesce() {
	r.backupMonitor.Clear()
	r.announcer.Stop()
	r.prop.CancelAll()
	r.registrations.Clear()
	r.subs.Clear()
	r.interests.Clear()
	clear(r.provisional)
}

// onCentralSeen refreshes the Backup's takeover timer on every sign of
// life from the Central.
func (r *RegistryRole) onCentralSeen() {
	if r.backup && !r.active {
		r.backupMonitor.SetAfter(backupTimeout)
	}
}

// takeover fires when the Central has been silent for the Backup
// timeout: "The Backup takes over automatically in case of Central
// failure" (§3).
func (r *RegistryRole) takeover() {
	if !r.backup || r.active {
		return
	}
	r.activate()
}

// onAppointBackup installs this node as the Backup and stores the synced
// registry state.
func (r *RegistryRole) onAppointBackup(recs []discovery.ServiceRecord) {
	if r.active {
		return
	}
	r.backup = true
	r.backupRecs = append(r.backupRecs[:0], recs...)
	r.backupMonitor.SetAfter(backupTimeout)
}

// maybeAppointBackup appoints the most powerful other 300D node this node
// has seen as Backup and syncs state to it.
func (r *RegistryRole) maybeAppointBackup() {
	pick := r.nd.rec.backupPick()
	if pick == netsim.NoNode {
		return
	}
	r.backupID = pick
	r.syncBackup()
}

// syncBackup pushes the current registrations to the Backup.
func (r *RegistryRole) syncBackup() {
	if r.backupID == netsim.NoNode {
		return
	}
	recs := []discovery.ServiceRecord{}
	r.registrations.Each(func(_ netsim.NodeID, rec discovery.ServiceRecord) {
		recs = append(recs, rec)
	})
	r.nd.nw.SendUDP(r.nd.n.ID, r.backupID, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.AppointBackup, Recs: recs}})
}

// onRegister stores the Manager's service. A new registration — or a
// re-registration with changed content — triggers PR1: "When the Manager
// re-registers, the Registry notifies interested Users of the new
// registration."
func (r *RegistryRole) onRegister(from netsim.NodeID, p *wire.Packet) {
	prev, existed := r.registrations.Get(from)
	lease := p.Lease
	if lease <= 0 {
		lease = core.RegistrationLease
	}
	r.registrations.Put(from, p.Record(), lease)
	delete(r.provisional, from) // a real Register establishes the lease
	r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.RegisterAck}})
	if !existed || prev.SD.Version() != p.SD.Version() {
		if r.nd.cfg.Techniques.Has(core.PR1) {
			r.notifyInterested(p.Record())
		}
		r.syncBackup()
	}
}

// notifyInterested propagates a (re-)registered record to subscribers of
// that Manager and to Users with matching standing interests. The fan-out
// order is deterministic (sorted by node ID) so runs replay exactly.
func (r *RegistryRole) notifyInterested(rec discovery.ServiceRecord) {
	targets := map[netsim.NodeID]bool{}
	r.subs.Each(func(k subKey, _ struct{}) {
		if k.manager == rec.Manager {
			targets[k.user] = true
		}
	})
	r.interests.Each(func(user netsim.NodeID, q discovery.Query) {
		if q.Matches(rec.SD) {
			targets[user] = true
		}
	})
	ordered := make([]netsim.NodeID, 0, len(targets))
	for user := range targets {
		ordered = append(ordered, user)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, user := range ordered {
		r.prop.Notify(user, rec, rec.SD.Version())
	}
}

// onUpdate handles a Manager's repository update (Fig. 1): refresh the
// stored record, acknowledge, and propagate to 3-party subscribers with
// the SRN1 retransmission schedule (exhaustions fall through to SRN2).
func (r *RegistryRole) onUpdate(from netsim.NodeID, rec discovery.ServiceRecord, seq uint64) {
	healed := false
	if !r.registrations.Update(from, rec) {
		if r.nd.cfg.Hardened {
			// Hardened registries never heal the repository silently: the
			// registration lease expired, so the Manager must re-register
			// on the wire (its RenewError handler does exactly that). A
			// silent Put here re-creates a lease no Register message ever
			// established — the divergence behind the hunted lease-purge
			// violations.
			r.renewError(from)
			return
		}
		// Unknown Manager (we purged it, or we are a fresh Central):
		// treat the update as a registration so the system heals. That
		// makes it a registration *event*, so interested Users are
		// notified exactly as for an explicit re-registration (PR1) —
		// otherwise the healed registration would be invisible to Users
		// whose only hope is the Registry's push.
		r.registrations.Put(from, rec, core.RegistrationLease)
		healed = true
	}
	r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.UpdateAck,
		Manager: from, N: rec.SD.Version(), Role: wire.RoleRegistry}})
	r.inconsistentFor(from).ResetVersion(rec.SD.Version())
	if healed {
		if r.nd.cfg.Techniques.Has(core.PR1) {
			r.notifyInterested(rec)
		}
		r.syncBackup()
		return
	}
	r.subs.Each(func(k subKey, _ struct{}) {
		if k.manager == from {
			r.prop.Notify(k.user, rec, seq)
		}
	})
}

// onSubscriberAck stops the retransmission schedule for an acknowledged
// update and clears the User's SRN2 mark.
func (r *RegistryRole) onSubscriberAck(from, manager netsim.NodeID, version uint64) {
	r.prop.Ack(from, version)
	if set, ok := r.inconsistent[manager]; ok {
		set.AckVersion(from, version)
	}
}

// onSearch answers a unicast query and records the standing interest.
// The reply's records are content-addressed against the last reply's:
// matches are collected into a reusable scratch, and only a changed match
// set copies a fresh record list.
func (r *RegistryRole) onSearch(from netsim.NodeID, q *discovery.Query) {
	r.interests.Put(from, *q, core.SubscriptionLease)
	scratch := r.searchScratch[:0]
	r.registrations.Each(func(_ netsim.NodeID, rec discovery.ServiceRecord) {
		if q.Matches(rec.SD) {
			scratch = append(scratch, rec)
		}
	})
	r.searchScratch = scratch
	if r.searchRecs == nil || !slices.Equal(scratch, r.searchRecs) {
		r.searchRecs = append(make([]discovery.ServiceRecord, 0, len(scratch)), scratch...)
	}
	r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.SearchReply, Recs: r.searchRecs}})
}

// onGet serves the current record (SRC2 missed-update requests).
func (r *RegistryRole) onGet(from, manager netsim.NodeID) {
	rec, ok := r.registrations.Get(manager)
	if !ok {
		return
	}
	r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.GetReply, Manager: rec.Manager, SD: rec.SD}})
}

// onSubscribe stores a 3-party subscription; the acknowledgement carries
// the current service state, which is how PR3 resubscription restores
// consistency.
func (r *RegistryRole) onSubscribe(from netsim.NodeID, p *wire.Packet) {
	lease := p.Lease
	if lease <= 0 {
		lease = core.SubscriptionLease
	}
	r.subs.Put(subKey{user: from, manager: p.Manager}, struct{}{}, lease)
	ack := wire.Packet{Kind: wire.SubscribeAck, Manager: p.Manager}
	if rec, ok := r.registrations.Get(p.Manager); ok {
		ack.SD = rec.SD
	}
	r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{Counted: true, Packet: ack})
}

// onSubscriptionRenew extends a live subscription; a renewal for a purged
// one triggers PR3: "Registry requests the User to resubscribe." The
// response to the resubscription is the updated service description.
func (r *RegistryRole) onSubscriptionRenew(from netsim.NodeID, p *wire.Packet) {
	lease := p.Lease
	if lease <= 0 {
		lease = core.SubscriptionLease
	}
	if p.Manager == netsim.NoNode {
		// Interest-only renewal: the User maintains its standing
		// notification request while its requirement is unmet.
		if r.interests.Renew(from, lease) {
			return
		}
		r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{Counted: true,
			Packet: wire.Packet{Kind: wire.RenewError, Manager: netsim.NoNode}})
		return
	}
	r.interests.Renew(from, lease)
	if r.subs.Renew(subKey{user: from, manager: p.Manager}, lease) {
		r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{ // lease upkeep, excluded from update effort
			Packet: wire.Packet{Kind: wire.RenewAck, Manager: p.Manager}})
		// SRN2, delegated: retry the notification this User missed.
		if set, ok := r.inconsistent[p.Manager]; ok && set.ShouldRetry(from) {
			if rec, live := r.registrations.Get(p.Manager); live {
				r.prop.Notify(from, rec, rec.SD.Version())
			}
		}
		return
	}
	if !r.nd.cfg.Techniques.Has(core.PR3) {
		return
	}
	r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.ResubscribeRequest, Manager: p.Manager}})
}

// onRegistrationRenew extends a Manager's registration lease. Renewals
// carry no service data; a renewal for a purged registration is answered
// with an error so the Manager re-registers in full (PR1). Hardened
// registries also refuse renewals racing the purge (a strict table) and
// renewals of Backup-seeded registrations no Register ever established
// (provisional is empty unless hardened).
func (r *RegistryRole) onRegistrationRenew(from netsim.NodeID, p *wire.Packet) {
	lease := p.Lease
	if lease <= 0 {
		lease = core.RegistrationLease
	}
	if !r.provisional[from] && r.registrations.Renew(from, lease) {
		r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{ // lease upkeep, excluded from update effort
			Packet: wire.Packet{Kind: wire.RenewAck, Manager: from}})
		return
	}
	r.renewError(from)
}

// renewError tells a Manager its registration lease is gone; its handler
// re-registers in full (PR1).
func (r *RegistryRole) renewError(from netsim.NodeID) {
	r.nd.nw.SendUDP(r.nd.n.ID, from, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.RenewError, Manager: from}})
}

// onRegistrationExpired is the purge half of PR5 in 3-party mode: "the
// Registry notifies the User when it purges the Manager." Subscribers
// are told the Manager is gone and their subscriptions dropped.
func (r *RegistryRole) onRegistrationExpired(manager netsim.NodeID) {
	delete(r.provisional, manager)
	if !r.active {
		return
	}
	r.subs.Each(func(k subKey, _ struct{}) {
		if k.manager != manager {
			return
		}
		r.nd.nw.SendUDP(r.nd.n.ID, k.user, netsim.Outgoing{Counted: true,
			Packet: wire.Packet{Kind: wire.ManagerGone, Manager: manager}})
		r.prop.Cancel(k.user)
		r.subs.Drop(k)
	})
	r.syncBackup()
}

// onSubscriptionExpired abandons any outstanding notification to the
// purged subscriber and drops its SRN2 state ("the status of the
// inconsistent User is cached until the subscription expires").
func (r *RegistryRole) onSubscriptionExpired(k subKey) {
	r.prop.Cancel(k.user)
	if set, ok := r.inconsistent[k.manager]; ok {
		set.Forget(k.user)
	}
}
