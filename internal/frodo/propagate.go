package frodo

import (
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// propagator drives acknowledged update notifications to a set of Users,
// one outstanding notification per User. It implements SRN1 (limited
// retransmission schedule) or SRC1 (unlimited, critical updates) and
// hands exhausted notifications to an SRN2 callback when the owner
// enables it. Both the Central (3-party) and 300D Managers (2-party) use
// it.
//
// Notification state is pooled: each pendingNotify embeds its retry
// schedule, records come from chunks the propagator allocates itself, and
// recycled ones are reused for later notifications. Each attempt sends
// the record and sequence number the notification holds, by value.
type propagator struct {
	k      *sim.Kernel
	nw     *netsim.Network
	from   netsim.NodeID
	policy core.RetryPolicy
	// onExhausted runs when the schedule gives up on a User (nil: drop),
	// receiving the record that could not be delivered.
	onExhausted func(user netsim.NodeID, rec discovery.ServiceRecord)

	pending map[netsim.NodeID]*pendingNotify
	free    *pendingNotify
	grown   int // length of the last record chunk
}

type pendingNotify struct {
	p    *propagator
	user netsim.NodeID
	rec  discovery.ServiceRecord
	seq  uint64

	retry core.Retry
	next  *pendingNotify // free-list link while recycled
}

// Static retry callbacks shared by every notification.
func notifySend(x any, _ int) {
	pn := x.(*pendingNotify)
	pn.p.nw.SendUDP(pn.p.from, pn.user, netsim.Outgoing{Counted: true, Packet: wire.Packet{
		Kind: wire.Update, Manager: pn.rec.Manager, SD: pn.rec.SD, N: pn.seq}})
}

func notifyExhausted(x any) {
	pn := x.(*pendingNotify)
	pp := pn.p
	delete(pp.pending, pn.user)
	user, rec := pn.user, pn.rec
	pp.release(pn)
	if pp.onExhausted != nil {
		pp.onExhausted(user, rec)
	}
}

func newPropagator(k *sim.Kernel, nw *netsim.Network, from netsim.NodeID,
	policy core.RetryPolicy, onExhausted func(netsim.NodeID, discovery.ServiceRecord)) *propagator {
	return &propagator{k: k, nw: nw, from: from, policy: policy,
		onExhausted: onExhausted, pending: map[netsim.NodeID]*pendingNotify{}}
}

// alloc takes a notification record from the free list, growing the pool
// by a chunk of records with their retry schedules bound when it is empty.
func (p *propagator) alloc() *pendingNotify {
	if p.free == nil {
		chunk := sim.Chunk[pendingNotify](&p.grown, 8, 256)
		for i := len(chunk) - 1; i >= 0; i-- {
			pn := &chunk[i]
			pn.p = p
			pn.retry.Init(p.k, p.policy, notifySend, notifyExhausted, pn)
			pn.next = p.free
			p.free = pn
		}
	}
	pn := p.free
	p.free = pn.next
	pn.next = nil
	return pn
}

func (p *propagator) release(pn *pendingNotify) {
	pn.rec = discovery.ServiceRecord{}
	pn.next = p.free
	p.free = pn
}

// Notify starts (or restarts) the acknowledged delivery of rec to user.
// A newer notification supersedes an outstanding one — "the service
// changes again, requiring the Manager to reset the notification
// process".
func (p *propagator) Notify(user netsim.NodeID, rec discovery.ServiceRecord, seq uint64) {
	pn, ok := p.pending[user]
	if ok {
		pn.retry.Stop()
	} else {
		pn = p.alloc()
		pn.user = user
		p.pending[user] = pn
	}
	pn.rec = rec
	pn.seq = seq
	pn.retry.SetPolicy(p.policy)
	pn.retry.Start()
}

// Ack processes a User's acknowledgement for a version: an ack at or
// above the outstanding version stops the retransmission.
func (p *propagator) Ack(user netsim.NodeID, version uint64) {
	pn, ok := p.pending[user]
	if !ok {
		return
	}
	if version >= pn.rec.SD.Version() {
		pn.retry.Stop()
		delete(p.pending, user)
		p.release(pn)
	}
}

// Cancel abandons the outstanding notification to one User (its
// subscription expired).
func (p *propagator) Cancel(user netsim.NodeID) {
	if pn, ok := p.pending[user]; ok {
		pn.retry.Stop()
		delete(p.pending, user)
		p.release(pn)
	}
}

// CancelAll abandons everything (the node lost its Central role).
func (p *propagator) CancelAll() {
	for user, pn := range p.pending {
		pn.retry.Stop()
		delete(p.pending, user)
		p.release(pn)
	}
}

// Rearm resets the propagator for workspace reuse after a Kernel.Reset:
// outstanding notifications are recycled with their event references
// dropped, never canceled (the events no longer exist).
func (p *propagator) Rearm() {
	for user, pn := range p.pending {
		pn.retry.Rearm()
		delete(p.pending, user)
		p.release(pn)
	}
}
