package upnp

import (
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// User is a UPnP control point with one service requirement. It discovers
// the Manager with M-SEARCH and ssdp:alive announcements, caches the
// description, subscribes for eventing, and recovers from failures with
// PR4 (resubscription on the Manager's request) and PR5 (rediscovery by
// multicast query or announcement).
type User struct {
	cfg      Config
	node     *netsim.Node
	nw       *netsim.Network
	k        *sim.Kernel
	query    discovery.Query
	listener discovery.ConsistencyListener

	// cache holds the discovered service; its lease is refreshed by
	// announcements (CACHE-CONTROL) and expires into PR5 rediscovery.
	cache discovery.LeaseTable[netsim.NodeID, discovery.ServiceRecord]

	// subscribedTo is the Manager the user holds an eventing subscription
	// with (NoNode when unsubscribed); renewTick refreshes the lease.
	subscribedTo netsim.NodeID
	renewTick    sim.Ticker

	// searchTick repeats M-SEARCH while the requirement is unmet (PR5).
	searchTick sim.Ticker

	// staleVersion is nonzero when an invalidation announced a version the
	// user has not fetched yet; getTick retries the fetch.
	staleVersion uint64
	getTick      sim.Ticker
	getting      bool

	// stopped marks a quiesced control point (Stop): a boot event still
	// pending when the device permanently departed must not restart it.
	stopped bool

	// pollTick drives CM2 when configured (cfg.PollPeriod > 0): a
	// persistent periodic re-fetch of the cached description.
	pollTick sim.Ticker

	// fetchDone is the GET's result callback, built once.
	fetchDone func(error)
}

// Static timer and lease callbacks shared by every control point.
func userRenew(x any)    { x.(*User).renew() }
func userSearch(x any)   { x.(*User).search() }
func userRetryGet(x any) { x.(*User).retryGet() }
func userPoll(x any)     { x.(*User).poll() }
func userCachePurge(x any, manager netsim.NodeID, _ discovery.ServiceRecord) {
	x.(*User).onCachePurge(manager)
}

// NewUser attaches a control point to a node.
func NewUser(node *netsim.Node, cfg Config, q discovery.Query, l discovery.ConsistencyListener) *User {
	if l == nil {
		l = discovery.NopListener{}
	}
	u := &User{
		cfg:          cfg,
		node:         node,
		nw:           node.Network(),
		k:            node.Kernel(),
		query:        q,
		listener:     l,
		subscribedTo: netsim.NoNode,
	}
	u.cache.Init(u.k, userCachePurge, u)
	u.renewTick.Init(u.k, core.RenewInterval(core.SubscriptionLease), userRenew, u)
	u.searchTick.Init(u.k, searchRetryPeriod, userSearch, u)
	u.getTick.Init(u.k, getRetryPeriod, userRetryGet, u)
	if cfg.PollPeriod > 0 {
		u.pollTick.Init(u.k, cfg.PollPeriod, userPoll, u)
	}
	u.fetchDone = func(error) { u.getting = false }
	u.bind()
	return u
}

// bind attaches the instance to its node slot; construction and Rearm
// share it.
func (u *User) bind() {
	u.node.SetEndpoint(u)
	u.nw.JoinTopics(u.node.ID, DiscoveryGroup, netsim.Topics(TopicAlive))
}

// Rearm resets the control point to its construction-time state for
// workspace reuse: cache and timers are cleared without touching the
// (already reset) kernel, and the node slot is re-bound.
func (u *User) Rearm() {
	u.cache.Rearm()
	u.renewTick.Rearm()
	u.searchTick.Rearm()
	u.getTick.Rearm()
	u.pollTick.Rearm()
	u.subscribedTo = netsim.NoNode
	u.staleVersion = 0
	u.getting = false
	u.stopped = false
	u.bind()
}

// poll is CM2: re-fetch every cached description, persistently — even
// while the lower layers report failures (the GET simply REXes and the
// next poll tries again).
func (u *User) poll() {
	u.cache.EachKey(func(mgr netsim.NodeID) {
		u.fetch(mgr)
	})
}

// Start boots the control point: it begins searching for its service
// unless an announcement already led to discovery, and arms CM2 polling
// when configured.
func (u *User) Start(bootDelay sim.Duration) {
	u.k.AfterArg(bootDelay, userBoot, u)
}

// userBoot is the static boot callback shared by every control point.
func userBoot(x any) {
	u := x.(*User)
	if u.stopped {
		return // departed permanently before the boot completed
	}
	if u.cache.Len() == 0 {
		u.searchTick.Start(0)
	}
	if u.cfg.PollPeriod > 0 {
		u.pollTick.Start(u.pollTick.Period())
	}
}

// ID reports the User's node ID.
func (u *User) ID() netsim.NodeID { return u.node.ID }

// Stop quiesces the control point: every timer is disarmed and the cache
// dropped (without purge callbacks), so the node can be retired after a
// permanent churn departure without leaving zombie events in the kernel.
// The User must not be used afterwards.
func (u *User) Stop() {
	if u.cfg.Hardened && u.subscribedTo != netsim.NoNode {
		// Hardened retirement: deregister from the Manager with a
		// best-effort UDP Bye so the subscription is evicted now instead
		// of lingering until lease expiry.
		u.nw.SendUDP(u.node.ID, u.subscribedTo, netsim.Outgoing{Counted: true,
			Packet: wire.Packet{Kind: wire.Bye, Role: wire.RoleUser}})
	}
	u.stopped = true
	u.searchTick.Stop()
	u.renewTick.Stop()
	u.getTick.Stop()
	u.pollTick.Stop()
	u.cache.Clear()
	u.subscribedTo = netsim.NoNode
	u.staleVersion = 0
}

// CachedVersion reports the version of the cached description for the
// Manager, zero if none.
func (u *User) CachedVersion(manager netsim.NodeID) uint64 {
	rec, ok := u.cache.Get(manager)
	if !ok {
		return 0
	}
	return rec.SD.Version()
}

// EachCached visits every cached service record — the live gateway's
// read path. The records share immutable snapshots and may be retained.
func (u *User) EachCached(fn func(discovery.ServiceRecord)) {
	u.cache.Each(func(_ netsim.NodeID, rec discovery.ServiceRecord) { fn(rec) })
}

// Deliver implements netsim.Endpoint.
func (u *User) Deliver(msg *netsim.Message) {
	p := &msg.Packet
	switch p.Kind {
	case wire.Announce:
		u.onAnnounce(msg.From, p)
	case wire.SearchReply:
		u.onSearchReply(msg.From)
	case wire.GetReply:
		u.onGetReply(p.Record())
	case wire.SubscribeAck:
		u.onSubscribeAck(msg.From, p.Record())
	case wire.ResubscribeRequest:
		u.onResubscribeRequest(msg.From)
	case wire.Invalidate:
		u.onInvalidate(p.Manager, p.N)
	}
}

// onAnnounce refreshes the cache lease for a known Manager; an unknown
// Manager while the requirement is unmet triggers a description fetch
// (PR5b: rediscovery by listening for the Manager's announcements).
func (u *User) onAnnounce(from netsim.NodeID, a *wire.Packet) {
	if a.Role != wire.RoleManager {
		return
	}
	lease := a.Lease
	if lease <= 0 {
		lease = cacheLease
	}
	if u.cache.Renew(from, lease) {
		return
	}
	u.fetch(from)
}

// onSearchReply reacts to an M-SEARCH response: the response locates the
// device, the description still has to be fetched.
func (u *User) onSearchReply(from netsim.NodeID) {
	if _, ok := u.cache.Get(from); ok {
		return
	}
	u.fetch(from)
}

// fetch GETs the description from a discovered device.
func (u *User) fetch(manager netsim.NodeID) {
	if u.getting {
		return
	}
	u.getting = true
	u.nw.SendTCPWith(netsim.TCPTransport(u.cfg.Hardened), u.node.ID, manager, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.Get, Manager: manager}}, u.fetchDone)
}

// onGetReply stores the description if it matches the requirement,
// subscribes if needed, and clears any pending staleness.
func (u *User) onGetReply(rec discovery.ServiceRecord) {
	if !u.query.Matches(rec.SD) {
		return
	}
	u.storeRec(rec)
	if rec.SD.Version() >= u.staleVersion {
		u.staleVersion = 0
		u.getTick.Stop()
	}
	if u.subscribedTo == netsim.NoNode {
		u.subscribe(rec.Manager)
	}
}

// subscribe opens the eventing subscription.
func (u *User) subscribe(manager netsim.NodeID) {
	u.nw.SendTCPWith(netsim.TCPTransport(u.cfg.Hardened), u.node.ID, manager, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.Subscribe, Manager: manager, Lease: core.SubscriptionLease}}, nil)
}

// onSubscribeAck records the subscription and stores the initial event
// state carried with the acceptance.
func (u *User) onSubscribeAck(from netsim.NodeID, rec discovery.ServiceRecord) {
	u.subscribedTo = from
	u.renewTick.Start(core.RenewInterval(core.SubscriptionLease))
	if u.query.Matches(rec.SD) {
		u.storeRec(rec)
		if rec.SD.Version() >= u.staleVersion {
			u.staleVersion = 0
			u.getTick.Stop()
		}
	}
}

// renew refreshes the eventing lease. The result is deliberately ignored:
// if the Manager purged the subscription, PR4 has it answer with a
// resubscription request.
func (u *User) renew() {
	if u.subscribedTo == netsim.NoNode {
		return
	}
	u.nw.SendTCPWith(netsim.TCPTransport(u.cfg.Hardened), u.node.ID, u.subscribedTo, netsim.Outgoing{ // lease upkeep, excluded from update effort
		Packet: wire.Packet{Kind: wire.Renew, Manager: u.subscribedTo, Lease: core.SubscriptionLease}}, nil)
}

// onResubscribeRequest is PR4: the Manager saw our renewal but had purged
// the subscription; resubscribing returns the current service state.
func (u *User) onResubscribeRequest(from netsim.NodeID) {
	if !u.cfg.Techniques.Has(core.PR4) {
		return
	}
	u.subscribedTo = netsim.NoNode
	u.subscribe(from)
}

// onInvalidate handles the eventing NOTIFY: the service changed, fetch the
// new description. If the fetch fails the user knows it is stale and
// keeps retrying (getTick) — unlike a lost NOTIFY, which leaves it
// unknowingly inconsistent.
func (u *User) onInvalidate(manager netsim.NodeID, version uint64) {
	if version <= u.CachedVersion(manager) {
		return
	}
	u.staleVersion = version
	u.fetch(manager)
	u.getTick.Start(getRetryPeriod)
}

func (u *User) retryGet() {
	if u.staleVersion == 0 {
		u.getTick.Stop()
		return
	}
	if _, ok := u.cache.Get(u.subscribedTo); !ok && u.subscribedTo == netsim.NoNode {
		u.getTick.Stop()
		return
	}
	if u.subscribedTo != netsim.NoNode {
		u.fetch(u.subscribedTo)
	}
}

// onCachePurge is PR5: the Manager disappeared (no announcements within
// the cache lease). Drop the subscription — "the User purges the Manager
// when the service lease expires" — and return to active search.
func (u *User) onCachePurge(manager netsim.NodeID) {
	if u.subscribedTo == manager {
		u.subscribedTo = netsim.NoNode
		u.renewTick.Stop()
	}
	u.staleVersion = 0
	u.getTick.Stop()
	if u.cfg.Techniques.Has(core.PR5) {
		u.searchTick.Start(0)
	}
}

// search multicasts an M-SEARCH for the requirement.
func (u *User) search() {
	u.nw.Multicast(u.node.ID, DiscoveryGroup, netsim.Outgoing{Counted: true, Topic: TopicSearch,
		Packet: wire.Packet{Kind: wire.Search, Q: &u.query}}, 1)
}

// storeRec caches the record — sharing the immutable snapshot, no copy —
// ends any active search, and reports the write to the consistency
// listener.
func (u *User) storeRec(rec discovery.ServiceRecord) {
	u.cache.Put(rec.Manager, rec, cacheLease)
	u.searchTick.Stop()
	u.listener.CacheUpdated(u.k.Now(), u.node.ID, rec.Manager, rec.SD.Version())
}
