package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// This file holds the sharded-fabric seam: a run's topology can be
// partitioned across S kernel/network pairs, each advancing on its own
// goroutine, with frames between shards carried as CrossFrame records
// through per-shard ShardRouters. The routers only buffer — all
// cross-shard movement happens at the window barriers the experiment
// coordinator runs (conservative parallel discrete-event simulation:
// each window is bounded by the minimum cross-shard link delay, so a
// frame sent during a window can never be due before the window every
// other shard has already agreed to reach). The unsharded path is
// untouched: router == nil short-circuits every hook.

// CrossLink characterizes the links between shards: one-way delay
// uniformly drawn from [MinDelay, MaxDelay] on the receiving shard's
// kernel. MinDelay is also the conservative lookahead — the window
// length shards may advance unsynchronized — so it trades fidelity
// against barrier overhead: windows per run ≈ RunDuration/MinDelay.
type CrossLink struct {
	MinDelay sim.Duration
	MaxDelay sim.Duration
}

// DefaultCrossLink returns campus-scale inter-segment latency. 200ms is
// far above the intra-shard 10–100µs but still well below every protocol
// time constant (leases and announce periods are tens of minutes), and
// it keeps a one-hour run at ~18k windows instead of the millions a
// LAN-scale lookahead would force.
func DefaultCrossLink() CrossLink {
	return CrossLink{MinDelay: 200 * sim.Millisecond, MaxDelay: 400 * sim.Millisecond}
}

func (cl CrossLink) Validate() error {
	if cl.MinDelay <= 0 {
		return fmt.Errorf("netsim: cross-shard MinDelay %v must be positive (it is the conservative lookahead)", cl.MinDelay)
	}
	if cl.MaxDelay < cl.MinDelay {
		return fmt.Errorf("netsim: cross-shard MaxDelay %v < MinDelay %v", cl.MaxDelay, cl.MinDelay)
	}
	return nil
}

// CrossFrame is one discovery frame in transit between shards. The
// sending shard accounted the wire transmission; the receiving shard
// draws loss and delay at ingest, exactly as it would for a local frame.
type CrossFrame struct {
	From      NodeID
	To        NodeID // NoNode for multicast
	Group     Group  // multicast only
	Topic     Topic  // multicast only
	Multicast bool
	Kind      string
	Counted   bool
	Payload   any
	SentAt    sim.Time
}

// ShardRouter is one shard's egress buffer: frames its nodes address to
// other shards, bucketed by destination. It is owned by the shard's
// goroutine between barriers and by the coordinator at barriers; it is
// never touched from both at once, so it needs no locking.
type ShardRouter struct {
	link   CrossLink
	outbox [][]CrossFrame // indexed by destination shard; own slot unused
}

// NewShardRouter creates the egress router for one shard of an S-shard
// fabric.
func NewShardRouter(shards int, link CrossLink) *ShardRouter {
	if shards < 2 {
		panic(fmt.Sprintf("netsim: NewShardRouter with %d shards (a 1-shard run needs no router)", shards))
	}
	if err := link.Validate(); err != nil {
		panic(err)
	}
	return &ShardRouter{link: link, outbox: make([][]CrossFrame, shards)}
}

// Shards reports the fabric's shard count.
func (r *ShardRouter) Shards() int { return len(r.outbox) }

// Lookahead reports the conservative window bound: the minimum time a
// cross-shard frame spends in flight.
func (r *ShardRouter) Lookahead() sim.Duration { return r.link.MinDelay }

// Drain appends the frames buffered for dest onto into, resets the
// bucket, and returns the extended slice. Coordinator-side only.
func (r *ShardRouter) Drain(dest int, into []CrossFrame) []CrossFrame {
	into = append(into, r.outbox[dest]...)
	clear(r.outbox[dest]) // drop payload references; frames now live in `into`
	r.outbox[dest] = r.outbox[dest][:0]
	return into
}

// egressMulticast buffers one wire copy of a multicast for every remote
// shard; each re-fans it over its own segment of the group (an empty
// segment ingests to nothing).
func (r *ShardRouter) egressMulticast(shard int, from NodeID, g Group, wire *Message) {
	for s := range r.outbox {
		if s == shard {
			continue
		}
		r.outbox[s] = append(r.outbox[s], CrossFrame{From: from, Group: g, Topic: wire.Topic, Multicast: true,
			To: NoNode, Kind: wire.Kind, Counted: wire.Counted, Payload: wire.Payload, SentAt: wire.SentAt})
	}
}

// SetShard places the network at a shard of a sharded fabric. It must be
// called before any AddNode: the shard is baked into every NodeID.
func (nw *Network) SetShard(shard int, r *ShardRouter) {
	if len(nw.nodes) != 0 {
		panic("netsim: SetShard must precede AddNode")
	}
	if r == nil || shard < 0 || shard >= r.Shards() {
		panic(fmt.Sprintf("netsim: SetShard(%d) outside the router's %d shards", shard, r.Shards()))
	}
	nw.shard = shard
	nw.idBase = shard << shardShift
	nw.router = r
}

// Shard reports which shard this network is (0 when unsharded).
func (nw *Network) Shard() int { return nw.shard }

// crossUnicast runs the sender half of a cross-shard SendUDP: account
// the wire transmission and the Tx-down loss here (the counters and the
// sender's interface state live on this shard), then buffer the frame
// for the destination shard, which draws receiver-side loss and delay
// at ingest. acctScratch keeps the accounting path allocation-free.
func (nw *Network) crossUnicast(from, to NodeID, out Outgoing) {
	nw.acctScratch = Message{From: from, To: to, Kind: out.Kind, Counted: out.Counted,
		Payload: out.Payload, Transport: UDP, SentAt: nw.k.Now()}
	nw.accountSend(&nw.acctScratch)
	if !nw.Node(from).txUp {
		nw.drop(&nw.acctScratch, "tx down")
		return
	}
	if nw.partitioned(from, to) {
		// Exact send-time semantics, same as the local path: the fault
		// coordinator arms the identical resolved partition on every
		// shard, so the sender knows the remote peer's side (partRemoteB).
		nw.drop(&nw.acctScratch, "partitioned")
		return
	}
	dest := to.Shard()
	nw.router.outbox[dest] = append(nw.router.outbox[dest], CrossFrame{From: from, To: to,
		Kind: out.Kind, Counted: out.Counted, Payload: out.Payload, SentAt: nw.acctScratch.SentAt})
}

// crossArrival draws the inter-shard delay for one receiver and anchors
// it at the frame's send instant. The window protocol guarantees
// SentAt+MinDelay is never behind this shard's clock; the clamp is a
// safety net against scheduling in the kernel's past.
func (nw *Network) crossArrival(sentAt sim.Time) sim.Time {
	at := sentAt + nw.k.UniformDuration(nw.router.link.MinDelay, nw.router.link.MaxDelay)
	if now := nw.k.Now(); at < now {
		at = now
	}
	return at
}

// IngestCross runs the receiver half for a batch of inbound cross-shard
// frames: per-receiver loss and delay draws in batch order, then normal
// in-shard delivery. The sends were accounted on the sending shard, so
// nothing here records a send. Must be called from the shard's own
// goroutine, before the window's RunUntil.
func (nw *Network) IngestCross(frames []CrossFrame) {
	for i := range frames {
		f := &frames[i]
		if f.Multicast {
			nw.ingestCrossMulticast(f)
			continue
		}
		if nw.Node(f.To).attachedAt > f.SentAt {
			// The slot changed hands while the frame crossed the barrier:
			// the tenancy check the local path does via gen-at-send, done
			// here via attach-time since the sender couldn't capture gen.
			nw.acctScratch = Message{From: f.From, To: f.To, Kind: f.Kind, Counted: f.Counted,
				Payload: f.Payload, Transport: UDP, SentAt: f.SentAt}
			nw.drop(&nw.acctScratch, "slot recycled")
			continue
		}
		if nw.linkLose(f.To) {
			nw.acctScratch = Message{From: f.From, To: f.To, Kind: f.Kind, Counted: f.Counted,
				Payload: f.Payload, Transport: UDP, SentAt: f.SentAt}
			nw.drop(&nw.acctScratch, "lost")
			continue
		}
		d := nw.allocDelivery()
		d.m = Message{From: f.From, To: f.To, Kind: f.Kind, Counted: f.Counted,
			Payload: f.Payload, Transport: UDP, SentAt: f.SentAt}
		d.gen = nw.Node(f.To).gen
		nw.k.AtArg(nw.crossArrival(f.SentAt), deliverUDP, d)
	}
}

// ingestCrossMulticast re-fans one remote wire copy over this shard's
// segment of the group, one loss and delay draw per member in membership
// order — the same shape as the local fan-out train, with the same
// listener test after the draws.
func (nw *Network) ingestCrossMulticast(cf *CrossFrame) {
	members, listens := nw.members(cf.Group)
	if len(members) == 0 {
		return
	}
	topic := cf.Topic.bit()
	f := nw.allocFanout()
	f.wire = Message{From: cf.From, To: NoNode, Multicast: true, Topic: cf.Topic, Kind: cf.Kind,
		Counted: cf.Counted, Payload: cf.Payload, Transport: UDP, SentAt: cf.SentAt}
	for i, to := range members {
		if nw.Node(to).attachedAt > cf.SentAt {
			// This member joined (or its slot was recycled) after the
			// remote copy hit the wire: it was not a receiver of that
			// transmission, exactly as a post-send joiner is absent from a
			// local fan-out. Skipped, not dropped — a non-member at send
			// time never had a frame to lose.
			continue
		}
		heard := listens[i]&topic != 0
		if nw.partitioned(cf.From, to) {
			// Checked at ingest: the remote sender cannot enumerate this
			// shard's segment of the group at send time. Split/heal edges
			// therefore act on cross-shard multicast with up to one
			// lookahead window of skew — deterministic, and bounded by
			// CrossLink.MinDelay.
			if heard {
				nw.dropCopy(f, to, "partitioned")
			}
			continue
		}
		if nw.linkLose(to) {
			if heard {
				nw.dropCopy(f, to, "lost")
			}
			continue
		}
		// Drawn for non-listeners too: the sample-path anchor, see
		// multicastCopy.
		at := nw.crossArrival(cf.SentAt)
		if heard {
			f.entries = append(f.entries, fanEntry{at: at, to: to, gen: nw.Node(to).gen})
		} else {
			f.entries = append(f.entries, fanEntry{at: at, to: NoNode})
		}
	}
	nw.armFanout(f)
}
