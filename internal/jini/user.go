package jini

import (
	"slices"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// regMgrKey identifies an event registration from the User's side: the
// Registry it was placed at and the Manager it concerns.
type regMgrKey struct {
	registry netsim.NodeID
	manager  netsim.NodeID
}

// User is a Jini client. Joining a lookup service means requesting
// notification of future registrations (PR1) and then always querying for
// existing ones (PR2) — the order Jini needs because of its notification
// anomaly. Once it finds the service, the User subscribes for remote
// events and renews all leases periodically; a renewal answered with an
// error (PR3) sends it back through the whole join sequence.
type User struct {
	cfg      Config
	node     *netsim.Node
	nw       *netsim.Network
	k        *sim.Kernel
	query    discovery.Query
	listener discovery.ConsistencyListener

	// registries tracks discovered lookup services; the lease is
	// refreshed by their announcements.
	registries discovery.LeaseTable[netsim.NodeID, struct{}]
	// cache holds the discovered service records. Its lease is refreshed
	// by events and by successful renewals: a healthy subscription attests
	// that the Registry still serves us. When it expires the requirement
	// is unmet again and the User re-queries.
	cache discovery.LeaseTable[netsim.NodeID, discovery.ServiceRecord]
	// subscribed records which event registrations the user believes it
	// holds, in the order they were opened: a User holds one or two, every
	// announcement copy walks them, and the walk order fixes the order of
	// equal-instant cache renewals, so it must not be a map's.
	subscribed []regMgrKey
	// monitors detects event sequence gaps per event registration (SRC2).
	monitors map[regMgrKey]*core.SeqMonitor

	renewTick sim.Ticker
	// pollTick drives CM2 when configured (cfg.PollPeriod > 0):
	// persistent periodic re-queries of the known Registries.
	pollTick sim.Ticker

	// stopped marks a quiesced client (Stop): a boot event still pending
	// when the device permanently departed must not restart it.
	stopped bool
}

// Static timer and lease callbacks shared by every Jini client.
func userRenewAll(x any) { x.(*User).renewAll() }
func userPoll(x any)     { x.(*User).poll() }
func userRegistryPurge(x any, reg netsim.NodeID, _ struct{}) {
	x.(*User).onRegistryPurge(reg)
}
func userCachePurge(x any, manager netsim.NodeID, _ discovery.ServiceRecord) {
	x.(*User).onCachePurge(manager)
}

// NewUser attaches a Jini client to a node.
func NewUser(node *netsim.Node, cfg Config, q discovery.Query, l discovery.ConsistencyListener) *User {
	if l == nil {
		l = discovery.NopListener{}
	}
	u := &User{
		cfg: cfg, node: node, nw: node.Network(), k: node.Kernel(),
		query: q, listener: l,
		monitors: map[regMgrKey]*core.SeqMonitor{},
	}
	u.registries.Init(u.k, userRegistryPurge, u)
	u.cache.Init(u.k, userCachePurge, u)
	u.renewTick.Init(u.k, core.RenewInterval(core.SubscriptionLease), userRenewAll, u)
	if cfg.PollPeriod > 0 {
		u.pollTick.Init(u.k, cfg.PollPeriod, userPoll, u)
	}
	u.bind()
	return u
}

// bind attaches the instance to its node slot; construction and Rearm
// share it.
func (u *User) bind() {
	u.node.SetEndpoint(u)
	u.nw.JoinTopics(u.node.ID, DiscoveryGroup, netsim.Topics(TopicAnnounce))
}

// Rearm resets the client to its construction-time state for workspace
// reuse.
func (u *User) Rearm() {
	u.registries.Rearm()
	u.cache.Rearm()
	u.renewTick.Rearm()
	u.pollTick.Rearm()
	u.subscribed = u.subscribed[:0]
	clear(u.monitors)
	u.stopped = false
	u.bind()
}

// poll is CM2: query every known Registry for the requirement,
// persistently.
func (u *User) poll() {
	u.registries.Each(func(reg netsim.NodeID, _ struct{}) { u.search(reg) })
}

// Start boots the client; it waits for Registry announcements.
func (u *User) Start(bootDelay sim.Duration) {
	u.k.AfterArg(bootDelay, userBoot, u)
}

// userBoot is the static boot callback shared by every Jini client.
func userBoot(x any) {
	u := x.(*User)
	if u.stopped {
		return // departed permanently before the boot completed
	}
	u.renewTick.Start(u.renewTick.Period())
	if u.cfg.PollPeriod > 0 {
		u.pollTick.Start(u.pollTick.Period())
	}
}

// ID reports the User's node ID.
func (u *User) ID() netsim.NodeID { return u.node.ID }

// Stop quiesces the client: timers disarmed, lease tables cleared
// (without purge callbacks), so the node can be retired after a
// permanent churn departure without leaving zombie events in the
// kernel. The User must not be used afterwards.
func (u *User) Stop() {
	if u.cfg.Hardened {
		// Hardened retirement: deregister from every known Registry with
		// a best-effort UDP Bye so our notification request and event
		// subscriptions are evicted now instead of at lease expiry.
		u.registries.EachKey(func(reg netsim.NodeID) {
			u.nw.SendUDP(u.node.ID, reg, netsim.Outgoing{Counted: true,
				Packet: wire.Packet{Kind: wire.Bye, Role: wire.RoleUser}})
		})
	}
	u.stopped = true
	u.renewTick.Stop()
	u.pollTick.Stop()
	u.registries.Clear()
	u.cache.Clear()
	u.subscribed = u.subscribed[:0]
	clear(u.monitors)
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
		u.onSearchReply(msg.From, p.Records())
	case wire.Update:
		u.onEvent(msg.From, p.Record(), p.N)
	case wire.RenewError:
		u.onRenewError(msg.From)
	case wire.RenewAck:
		u.onRenewAck(msg.From)
	case wire.SubscribeAck:
		// The confirmation of the notification request triggers the PR2
		// query; event-registration confirmations carry no service state
		// in Jini, so there is nothing else to do.
		if p.Manager == netsim.NoNode && u.cfg.Techniques.Has(core.PR2) {
			u.search(msg.From)
		}
	}
}

// onAnnounce refreshes a known Registry or joins a new one.
func (u *User) onAnnounce(from netsim.NodeID, a *wire.Packet) {
	if a.Role != wire.RoleRegistry {
		return
	}
	lease := a.Lease
	if lease <= 0 {
		lease = cacheLease
	}
	if u.registries.Renew(from, lease) {
		// The Registry vouches for the services discovered through it:
		// its announcements keep the cached records alive, so staleness
		// is repaired by events, PR1 re-registrations and PR3 errors
		// rather than by silent cache expiry.
		for _, key := range u.subscribed {
			if key.registry == from {
				u.cache.Renew(key.manager, cacheLease)
			}
		}
		return
	}
	u.registries.Put(from, struct{}{}, lease)
	u.join(from)
}

// join performs the Jini discovery sequence against one Registry:
// notification request first (PR1), then — once the request is confirmed
// in place — the query that Jini forces because existing registrations
// are not notified (PR2). Sequencing the query after the request's
// acknowledgement closes the race in which a registration lands after the
// query ran but before the request was stored, which would leave the User
// permanently unserved.
func (u *User) join(reg netsim.NodeID) {
	if !u.cfg.Techniques.Has(core.PR1) {
		if u.cfg.Techniques.Has(core.PR2) {
			u.search(reg)
		}
		return
	}
	u.nw.SendTCPWith(netsim.TCPTransport(u.cfg.Hardened), u.node.ID, reg, netsim.Outgoing{Counted: true, Packet: wire.Packet{
		Kind: wire.Subscribe, Manager: netsim.NoNode, Q: &u.query, Lease: core.SubscriptionLease}}, nil)
}

// search queries one Registry for the requirement.
func (u *User) search(reg netsim.NodeID) {
	u.nw.SendTCPWith(netsim.TCPTransport(u.cfg.Hardened), u.node.ID, reg, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.Search, Q: &u.query}}, nil)
}

// onSearchReply stores matching records and subscribes for their events.
func (u *User) onSearchReply(reg netsim.NodeID, recs []discovery.ServiceRecord) {
	for _, rec := range recs {
		if !u.query.Matches(rec.SD) {
			continue
		}
		u.storeRec(rec)
		u.subscribe(reg, rec.Manager)
	}
}

// subscribe opens the event registration for one Manager at one Registry.
func (u *User) subscribe(reg, manager netsim.NodeID) {
	key := regMgrKey{registry: reg, manager: manager}
	if slices.Contains(u.subscribed, key) {
		return
	}
	u.subscribed = append(u.subscribed, key)
	u.nw.SendTCPWith(netsim.TCPTransport(u.cfg.Hardened), u.node.ID, reg, netsim.Outgoing{Counted: true, Packet: wire.Packet{
		Kind: wire.Subscribe, Manager: manager, Lease: core.SubscriptionLease}}, nil)
}

// onEvent stores the updated record from a remote event, ensures the
// event registration exists (registration notifications may be the first
// contact with the service), and checks the event sequence for gaps
// (SRC2): a gap means a missed event, repaired by re-querying.
func (u *User) onEvent(reg netsim.NodeID, rec discovery.ServiceRecord, seq uint64) {
	if !u.query.Matches(rec.SD) {
		return
	}
	// Unsequenced events (seq == 0) are registration notifications, not
	// numbered remote events; they carry full state and need no gap check.
	if seq > 0 && u.cfg.Techniques.Has(core.SRC2) {
		key := regMgrKey{registry: reg, manager: rec.Manager}
		mon := u.monitors[key]
		if mon == nil {
			mon = &core.SeqMonitor{}
			u.monitors[key] = mon
		}
		if gapped, _ := mon.Observe(seq); gapped {
			u.search(reg)
		}
	}
	u.storeRec(rec)
	u.subscribe(reg, rec.Manager)
}

// renewAll refreshes the user's leases at every known Registry with a
// single renewal covering its notification request and subscriptions.
func (u *User) renewAll() {
	u.registries.Each(func(reg netsim.NodeID, _ struct{}) {
		renew := wire.Packet{Kind: wire.Renew, Manager: netsim.NoNode, Lease: core.SubscriptionLease}
		for _, key := range u.subscribed {
			if key.registry == reg {
				renew.Manager = key.manager
				break
			}
		}
		// Lease upkeep, excluded from update effort.
		u.nw.SendTCPWith(netsim.TCPTransport(u.cfg.Hardened), u.node.ID, reg, netsim.Outgoing{Packet: renew}, nil)
	})
}

// onRenewAck refreshes the cache lease of services subscribed through the
// acknowledging Registry: the subscription is alive, so the cached record
// remains backed by a live lease chain.
func (u *User) onRenewAck(reg netsim.NodeID) {
	for _, key := range u.subscribed {
		if key.registry == reg {
			u.cache.Renew(key.manager, cacheLease)
		}
	}
}

// onRenewError is PR3, Jini style: the Registry purged our leases and
// only says so; redo the entire join sequence.
func (u *User) onRenewError(reg netsim.NodeID) {
	u.forgetRegistry(reg)
	u.join(reg)
}

// onRegistryPurge drops a silent Registry; announcements will trigger a
// fresh join (PR2a: rediscovery through the periodic announcements).
func (u *User) onRegistryPurge(reg netsim.NodeID) {
	u.forgetRegistry(reg)
}

func (u *User) forgetRegistry(reg netsim.NodeID) {
	u.subscribed = slices.DeleteFunc(u.subscribed, func(key regMgrKey) bool {
		if key.registry != reg {
			return false
		}
		delete(u.monitors, key)
		return true
	})
}

// onCachePurge re-queries the known Registries: the requirement is
// standing, so a purged service is searched for again.
func (u *User) onCachePurge(manager netsim.NodeID) {
	u.subscribed = slices.DeleteFunc(u.subscribed, func(key regMgrKey) bool {
		return key.manager == manager
	})
	u.registries.Each(func(reg netsim.NodeID, _ struct{}) { u.search(reg) })
}

// storeRec caches the record — sharing the immutable snapshot, no copy —
// and reports it to the consistency listener.
func (u *User) storeRec(rec discovery.ServiceRecord) {
	u.cache.Put(rec.Manager, rec, cacheLease)
	u.listener.CacheUpdated(u.k.Now(), u.node.ID, rec.Manager, rec.SD.Version())
}
