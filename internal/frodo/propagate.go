package frodo

import (
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// propagator drives acknowledged update notifications to a set of Users,
// one outstanding notification per User. It implements SRN1 (limited
// retransmission schedule) or SRC1 (unlimited, critical updates) and
// hands exhausted notifications to an SRN2 callback when the owner
// enables it. Both the Central (3-party) and 300D Managers (2-party) use
// it.
//
// Notification state is pooled: each pendingNotify is one object
// embedding its retry schedule, and recycled entries are reused for later
// notifications, so steady-state fan-out allocates only the wire
// payloads. The record carried by a notification shares the
// immutable description snapshot — no copies.
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
}

type pendingNotify struct {
	p    *propagator
	user netsim.NodeID
	rec  discovery.ServiceRecord
	seq  uint64
	// out is the boxed wire payload, built once per Notify so the
	// retransmission schedule reuses it across attempts.
	out netsim.Outgoing

	retry core.Retry
	next  *pendingNotify // free-list link while recycled
}

// Static retry callbacks shared by every notification.
func notifySend(x any, _ int) {
	pn := x.(*pendingNotify)
	pn.p.nw.SendUDP(pn.p.from, pn.user, pn.out)
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

// alloc takes a notification record from the free list, or builds a new
// one with its embedded retry schedule.
func (p *propagator) alloc() *pendingNotify {
	pn := p.free
	if pn != nil {
		p.free = pn.next
		pn.next = nil
		return pn
	}
	pn = &pendingNotify{p: p}
	pn.retry.Init(p.k, p.policy, notifySend, notifyExhausted, pn)
	return pn
}

func (p *propagator) release(pn *pendingNotify) {
	pn.rec = discovery.ServiceRecord{}
	pn.out = netsim.Outgoing{}
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
	pn.out = netsim.Outgoing{
		Kind:    discovery.Kind(discovery.Update{}),
		Counted: true,
		Payload: discovery.Update{Rec: rec, Seq: seq},
	}
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

// Outstanding reports how many notifications are still unacknowledged.
func (p *propagator) Outstanding() int { return len(p.pending) }
