package frodo

import (
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// UserRole holds one service requirement. Discovery goes through the
// Central (unicast query) with a multicast fallback when the Central is
// not responding; the subscription mode follows the Manager's device
// class: 300D Managers are subscribed to directly (2-party), everything
// else through the Central (3-party).
type UserRole struct {
	nd       *Node
	query    discovery.Query
	listener discovery.ConsistencyListener

	cache discovery.LeaseTable[netsim.NodeID, discovery.ServiceRecord]

	searchTick   sim.Ticker
	searchesLeft int

	// Subscription state: lessee is who holds our lease (the Central in
	// 3-party, the Manager in 2-party); subMgr is the Manager the
	// subscription is about. subRetry is embedded with a callback bound
	// once, sending to the current lessee/subMgr — every mutation of
	// those fields stops the schedule first, so the send target can never
	// drift mid-schedule.
	lessee    netsim.NodeID
	subMgr    netsim.NodeID
	subActive bool
	subRetry  core.Retry
	renewTick sim.Ticker

	// interestTick maintains the standing notification request at the
	// Central while the requirement is unmet: the User explicitly asked
	// to be notified of matching registrations, and that request is a
	// lease like any other. Without upkeep, a long Manager outage
	// outlives the interest and the PR1 push finds nobody to tell.
	interestTick sim.Ticker

	// pollTick drives CM2 when configured (cfg.PollPeriod > 0):
	// persistent periodic Get requests for every cached service. It is
	// nil otherwise, so a User that does not poll does not carry it: the
	// role then fits a 704-byte allocation (TestUserRoleSizeClass).
	pollTick *sim.Ticker

	// monitor detects missed sequenced updates (SRC2, critical mode).
	monitor core.SeqMonitor
}

// Static timer, lease and retry callbacks shared by every User role.
func userSearch(x any)        { x.(*UserRole).search() }
func userRenew(x any)         { x.(*UserRole).renew() }
func userRenewInterest(x any) { x.(*UserRole).renewInterest() }
func userPoll(x any)          { x.(*UserRole).poll() }

// userCachePurge is PR5 by lease expiry: the service went silent.
func userCachePurge(x any, manager netsim.NodeID, _ discovery.ServiceRecord) {
	x.(*UserRole).purgeManager(manager)
}

func userSendSubscribe(x any, _ int) { x.(*UserRole).sendSubscribe() }
func userSubscribeExhausted(x any)   { x.(*UserRole).subscribeExhausted() }

func newUserRole(nd *Node, q discovery.Query, l discovery.ConsistencyListener) *UserRole {
	if l == nil {
		l = discovery.NopListener{}
	}
	u := &UserRole{nd: nd, query: q, listener: l, lessee: netsim.NoNode, subMgr: netsim.NoNode}
	u.cache.Init(nd.k, userCachePurge, u)
	u.searchTick.Init(nd.k, searchRetryPeriod, userSearch, u)
	u.renewTick.Init(nd.k, core.RenewInterval(core.SubscriptionLease), userRenew, u)
	u.interestTick.Init(nd.k, core.RenewInterval(core.SubscriptionLease), userRenewInterest, u)
	if nd.cfg.PollPeriod > 0 {
		u.pollTick = new(sim.Ticker)
		u.pollTick.Init(nd.k, nd.cfg.PollPeriod, userPoll, u)
	}
	u.subRetry.Init(nd.k, nd.cfg.controlRetry(), userSendSubscribe, userSubscribeExhausted, u)
	return u
}

// rearm resets the role to its construction-time state for workspace
// reuse.
func (u *UserRole) rearm() {
	u.cache.Rearm()
	u.searchTick.Rearm()
	u.renewTick.Rearm()
	u.interestTick.Rearm()
	if u.pollTick != nil {
		u.pollTick.Rearm()
	}
	u.subRetry.Rearm()
	u.searchesLeft = 0
	u.lessee = netsim.NoNode
	u.subMgr = netsim.NoNode
	u.subActive = false
	u.monitor.Reset()
	u.syncVouched()
}

// poll is CM2: request the current description of every cached service
// from the subscription lessee when one is established, otherwise from
// the Central.
func (u *UserRole) poll() {
	u.cache.EachKey(func(mgr netsim.NodeID) {
		target := u.nd.central
		if u.subActive && u.subMgr == mgr {
			target = u.lessee
		}
		if target == netsim.NoNode || target == u.nd.n.ID {
			return
		}
		u.nd.nw.SendUDP(u.nd.n.ID, target, netsim.Outgoing{Counted: true,
			Packet: wire.Packet{Kind: wire.Get, Manager: mgr}})
	})
}

// renewInterest keeps the standing notification request alive while the
// requirement is unmet. Subscribed Users piggyback interest renewal on
// their subscription renewals instead.
func (u *UserRole) renewInterest() {
	if u.subActive {
		return
	}
	central := u.nd.central
	if central == netsim.NoNode || central == u.nd.n.ID {
		return
	}
	u.nd.nw.SendUDP(u.nd.n.ID, central, netsim.Outgoing{ // lease upkeep, excluded from update effort
		Packet: wire.Packet{Kind: wire.Renew, Manager: netsim.NoNode, Lease: core.SubscriptionLease}})
}

// onInterestError reacts to the Central rejecting an interest renewal
// (it purged the request, e.g. after its own outage): re-establish
// contact with a fresh search burst, which both re-registers the
// interest and picks up anything already registered.
func (u *UserRole) onInterestError() {
	if u.subActive {
		return
	}
	u.startSearchBurst()
}

func (u *UserRole) start() {
	if u.cache.Len() == 0 {
		u.startSearchBurst()
	}
	u.interestTick.Start(u.interestTick.Period())
	if u.pollTick != nil {
		u.pollTick.Start(u.pollTick.Period())
	}
}

// startSearchBurst arms a bounded train of searches (PR5's query side).
func (u *UserRole) startSearchBurst() {
	u.searchesLeft = searchBurst
	if u.searchesLeft <= 0 {
		u.searchesLeft = 1
	}
	u.searchTick.Start(u.nd.k.UniformDuration(0, sim.Second))
}

// ID reports the hosting node's ID.
func (u *UserRole) ID() netsim.NodeID { return u.nd.n.ID }

// stop quiesces the role for node retirement: every ticker, retry
// schedule and cache lease is disarmed. The pending resubscribe back-off
// event armed by subscribe's exhaustion handler (if any) fires into a
// cleared cache and does nothing.
func (u *UserRole) stop() {
	if u.nd.cfg.Hardened {
		u.sendByes()
	}
	u.searchTick.Stop()
	u.renewTick.Stop()
	u.interestTick.Stop()
	if u.pollTick != nil {
		u.pollTick.Stop()
	}
	u.subRetry.Stop()
	u.cache.Clear()
	u.subActive = false
	u.subMgr = netsim.NoNode
	u.lessee = netsim.NoNode
	u.searchesLeft = 0
	u.syncVouched()
}

// sendByes emits best-effort goodbyes to every holder of this User's
// leases — the subscription lessee (Central in 3-party, Manager in
// 2-party) and the Central carrying the standing interest — so they
// evict now instead of retrying notifications at a recycled node slot.
func (u *UserRole) sendByes() {
	out := netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.Bye, Role: wire.RoleUser}}
	sent := netsim.NoNode
	if u.lessee != netsim.NoNode && u.lessee != u.nd.n.ID {
		u.nd.nw.SendUDP(u.nd.n.ID, u.lessee, out)
		sent = u.lessee
	}
	if c := u.nd.central; c != netsim.NoNode && c != sent && c != u.nd.n.ID {
		u.nd.nw.SendUDP(u.nd.n.ID, c, out)
	}
}

// EachCached visits every cached service record — the live gateway's
// read path. The records share immutable snapshots and may be retained.
func (u *UserRole) EachCached(fn func(discovery.ServiceRecord)) {
	u.cache.Each(func(_ netsim.NodeID, rec discovery.ServiceRecord) { fn(rec) })
}

// search queries the Central, or multicasts when no Central is known —
// "Managers are rediscovered by querying the Registry or by sending
// multicast queries when the Registry is not responding."
func (u *UserRole) search() {
	if u.searchesLeft <= 0 {
		u.searchTick.Stop()
		return
	}
	u.searchesLeft--
	out := netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.Search, Q: &u.query},
		Topic: TopicSearch} // for the multicast fallback; unicast ignores it
	if central := u.nd.central; central != netsim.NoNode && central != u.nd.n.ID {
		u.nd.nw.SendUDP(u.nd.n.ID, central, out)
		return
	}
	u.nd.nw.Multicast(u.nd.n.ID, DiscoveryGroup, out, 1)
}

// onSearchReply adopts matching records.
func (u *UserRole) onSearchReply(recs []discovery.ServiceRecord) {
	for _, rec := range recs {
		if u.query.Matches(rec.SD) {
			u.adopt(rec)
		}
	}
}

// adopt caches the record and establishes the subscription dictated by
// the Manager's device class ("The User is able to detect which
// subscription process to use, based on the device class of the
// Manager").
func (u *UserRole) adopt(rec discovery.ServiceRecord) {
	u.storeRec(rec)
	target := u.nd.central
	if rec.SD.Attr(ClassAttr) == Class300D.String() {
		target = rec.Manager
	}
	if target == netsim.NoNode {
		// A 3-party service but no Central to subscribe at: keep
		// searching; centralChanged re-adopts the cached record.
		return
	}
	u.searchTick.Stop()
	if u.lessee == target && u.subMgr == rec.Manager {
		if u.subActive || u.subRetry.Active() {
			return
		}
	}
	u.subscribe(target, rec.Manager)
}

// subscribe arms the subscription request with the control
// retransmission schedule; an exhausted schedule retries after a
// node-announce period while the record stays cached.
func (u *UserRole) subscribe(lessee, manager netsim.NodeID) {
	u.subRetry.Stop()
	u.subActive = false
	u.lessee = lessee
	u.subMgr = manager
	u.syncVouched()
	u.subRetry.Start()
}

// sendSubscribe is the subscription retry's transmission callback.
func (u *UserRole) sendSubscribe() {
	u.nd.nw.SendUDP(u.nd.n.ID, u.lessee, netsim.Outgoing{Counted: true, Packet: wire.Packet{
		Kind: wire.Subscribe, Manager: u.subMgr, Lease: core.SubscriptionLease}})
}

// subscribeExhausted backs off for a node-announce period and retries
// while the record stays cached and the target has not changed.
func (u *UserRole) subscribeExhausted() {
	lessee, manager := u.lessee, u.subMgr
	u.nd.k.After(nodeAnnouncePeriod, func() {
		if !u.subActive && u.cache.Len() > 0 && u.lessee == lessee {
			u.subscribe(lessee, manager)
		}
	})
}

// onSubscribeAck confirms the subscription and applies any initial state.
func (u *UserRole) onSubscribeAck(from netsim.NodeID, rec discovery.ServiceRecord) {
	if from != u.lessee {
		return
	}
	u.subRetry.Stop()
	u.subActive = true
	u.syncVouched()
	u.searchTick.Stop()
	u.renewTick.Start(u.renewTick.Period())
	if u.query.Matches(rec.SD) {
		u.storeRec(rec)
	}
}

// renew sends the periodic SubscriptionRenew of Fig. 1. In 2-party mode
// this is also the SRN2 trigger on the Manager's side.
func (u *UserRole) renew() {
	if !u.subActive || u.lessee == netsim.NoNode {
		return
	}
	u.nd.nw.SendUDP(u.nd.n.ID, u.lessee, netsim.Outgoing{ // lease upkeep, excluded from update effort
		Packet: wire.Packet{Kind: wire.Renew, Manager: u.subMgr, Lease: core.SubscriptionLease}})
}

// onRenewAck refreshes the cached record's lease: a live subscription
// chain keeps the cached service alive.
func (u *UserRole) onRenewAck(from netsim.NodeID) {
	if from != u.lessee {
		return
	}
	u.cache.Renew(u.subMgr, cacheLease)
}

// onCentralAnnounce refreshes cached records the Central vouches for:
// 3-party services live in its repository, so while it announces they
// stay valid and purge-rediscovery is driven by its explicit signals
// (ManagerGone, resubscription requests) or by the Central going silent.
// This decoupling is what lets PR3 fire: the cache outlives a purged
// subscription. A 2-party service is the Manager's own affair — only the
// Manager's acknowledgements keep it alive — which is why 2-party Users
// fall back to rediscovery through the Registry, the weaker PR5 the
// paper describes.
func (u *UserRole) onCentralAnnounce() {
	u.cache.RenewIf(cacheLease, u.vouchedFor)
}

// vouchedFor reports whether the Central's announcement renews the cached
// record of a Manager: every record but a 2-party subscription's, which
// its Manager vouches for itself.
func (u *UserRole) vouchedFor(mgr netsim.NodeID) bool {
	return !(u.subActive && u.lessee == mgr)
}

// syncVouched sets the Node's vouched bit to whether any cached record is
// vouchedFor. Keys are distinct, so only a single cached record can be the
// subscription's own.
func (u *UserRole) syncVouched() {
	n := u.cache.Len()
	if n == 1 && u.subActive {
		if _, own := u.cache.Get(u.lessee); own {
			n = 0
		}
	}
	u.nd.vouched = n > 0
}

// onResubscribeRequest complies with PR3 (from the Central) or PR4 (from
// a 2-party Manager): subscribe again; the acknowledgement carries the
// current service state.
func (u *UserRole) onResubscribeRequest(from, manager netsim.NodeID) {
	u.subscribe(from, manager)
}

// onUpdate stores the pushed description and acknowledges it. The
// acknowledgement is a subscriber receipt — the UDP analogue of the TCP
// acks in Jini/UPnP — and is excluded from the update-effort count. In
// critical mode the sequence monitor requests missed updates (SRC2).
func (u *UserRole) onUpdate(from netsim.NodeID, rec discovery.ServiceRecord, seq uint64) {
	if !u.query.Matches(rec.SD) {
		return
	}
	if u.nd.cfg.CriticalUpdates && u.nd.cfg.Techniques.Has(core.SRC2) && seq > 0 {
		if gapped, _ := u.monitor.Observe(seq); gapped {
			u.nd.nw.SendUDP(u.nd.n.ID, from, netsim.Outgoing{Counted: true,
				Packet: wire.Packet{Kind: wire.Get, Manager: rec.Manager}})
		}
	}
	// Updates can be the first contact with the service (PR1 notifies
	// standing interests): adopt establishes the subscription if needed.
	u.adopt(rec)
	u.nd.nw.SendUDP(u.nd.n.ID, from, netsim.Outgoing{Packet: wire.Packet{Kind: wire.UpdateAck,
		Manager: rec.Manager, N: rec.SD.Version(), Role: wire.RoleUser}})
}

// onGetReply adopts a fetched description (SRC2 repair).
func (u *UserRole) onGetReply(rec discovery.ServiceRecord) {
	if u.query.Matches(rec.SD) {
		u.adopt(rec)
	}
}

// onManagerGone is PR5 in 3-party mode: the Central purged the Manager,
// so purge it here too and rediscover.
func (u *UserRole) onManagerGone(from, manager netsim.NodeID) {
	if from != u.nd.central {
		return
	}
	u.cache.Drop(manager)
	u.purgeManager(manager)
}

func (u *UserRole) purgeManager(manager netsim.NodeID) {
	if u.subMgr == manager {
		u.subActive = false
		u.subMgr = netsim.NoNode
		u.lessee = netsim.NoNode
		u.subRetry.Stop()
		u.renewTick.Stop()
	}
	u.syncVouched()
	u.monitor.Reset()
	if u.nd.cfg.Techniques.Has(core.PR5) {
		u.startSearchBurst()
	}
}

// centralChanged re-subscribes 3-party subscriptions at the new Central,
// re-adopts cached records that could not be subscribed while no Central
// was known, and gives searching Users an immediate query target.
func (u *UserRole) centralChanged(central netsim.NodeID) {
	if u.subMgr != netsim.NoNode && u.lessee != u.subMgr {
		// 3-party subscription: move it to the new Central.
		u.subscribe(central, u.subMgr)
		return
	}
	if !u.subActive && u.cache.Len() > 0 {
		u.cache.Each(func(_ netsim.NodeID, rec discovery.ServiceRecord) {
			if u.query.Matches(rec.SD) {
				u.adopt(rec)
			}
		})
		return
	}
	if u.cache.Len() == 0 && u.nd.started {
		u.startSearchBurst()
	}
}

// centralLost marks a 3-party subscription as orphaned; the cache lease
// will drive rediscovery if no new Central appears in time.
func (u *UserRole) centralLost() {
	if u.subMgr != netsim.NoNode && u.lessee != u.subMgr {
		u.subActive = false
		u.renewTick.Stop()
		u.syncVouched()
	}
}

// storeRec caches the record — sharing the immutable snapshot, no copy —
// and reports the write to the consistency listener. The search ticker is
// stopped by adopt/onSubscribeAck, not here: a cached record without a
// reachable subscription target must keep the search alive.
func (u *UserRole) storeRec(rec discovery.ServiceRecord) {
	u.cache.Put(rec.Manager, rec, cacheLease)
	u.syncVouched()
	u.listener.CacheUpdated(u.nd.k.Now(), u.nd.n.ID, rec.Manager, rec.SD.Version())
}
