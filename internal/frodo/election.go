package frodo

import (
	"math"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ballot is a node's election record: everything a received candidacy
// reads, in 32 bytes, so that the O(N²) candidacy train of a large boot
// walks a dense, cache-resident array of records instead of touching each
// receiver's Node. "The 300D nodes elect the most powerful node as the
// Registry" (§3): every candidate multicasts its power, collects
// competing candidacies for the election window, and the most powerful
// node (ties broken by highest ID) declares itself Central.
//
// The record is its node's netsim.Endpoint. It handles ElectionAnnounce
// itself and hands every other frame to the Node. It mirrors two bits of
// the Node, which stays authoritative for both: central is
// registry.active (set by activate, cleared by deactivate and the
// rearms), and running is Node.running (written by startElection, decide
// and electionCentralKnown, the last only when an election was actually
// running). A build's records live in its Fleet, one per node slot.
// Powers and IDs are int32: NewNode refuses a wider power, a received
// power beyond it (which no FRODO device sends) saturates, and a slot
// index never comes near 2³¹.
type ballot struct {
	nd *Node
	// self is the owner's node ID: its own candidacy never makes it its
	// own Backup.
	self int32
	// pick is the strongest other 300D node heard in election
	// candidacies; the Central appoints it Backup.
	pick candidate
	// best is the strongest candidacy of the election in progress, the
	// owner's own included.
	best             candidate
	running, central bool
}

// candidate is a running maximum by (power, id).
type candidate struct{ id, power int32 }

var noCandidate = candidate{id: int32(netsim.NoNode), power: -1}

// note folds in one candidacy.
func (c *candidate) note(id, power int32) {
	if power > c.power || (power == c.power && id > c.id) {
		c.id, c.power = id, power
	}
}

// reset returns the record to a freshly built node's state.
func (b *ballot) reset(nd *Node) {
	*b = ballot{nd: nd, self: int32(nd.n.ID), pick: noCandidate, best: noCandidate}
}

// Deliver implements netsim.Endpoint: a candidacy is decided here, from
// the record alone unless the owner is the Central; anything else goes to
// the Node.
func (b *ballot) Deliver(msg *netsim.Message) {
	if msg.Packet.Kind == wire.ElectionAnnounce {
		b.onCandidate(msg.From, msg.Packet.N)
		return
	}
	b.nd.Deliver(msg)
}

// onCandidate processes a competing candidacy. pick is the running
// maximum over every candidacy heard from another node. It stands in for
// a map of each peer's last announced power, of which only the maximum
// was ever read, and selects the same node as long as no ID re-announces
// with a LOWER power than before: a device's power is fixed at
// construction, and a recycled slot can only pass from a departed User
// (power 1, the minimum — Detach declines for Managers, the Central and
// the Backup) to a tenant at least as strong. Under that invariant each
// ID's last power is its highest, so the maximum over last powers is the
// maximum over all.
//
// A sitting Central asserts itself by announcing immediately, so late
// candidates adopt it instead of electing a rival. A 3C/3D node never
// runs an election, so beyond the (unused) Backup pick this is a no-op
// for it.
func (b *ballot) onCandidate(from netsim.NodeID, power uint64) {
	id, pow := int32(from), int32(min(power, math.MaxInt32))
	if id != b.self {
		b.pick.note(id, pow)
	}
	if b.central {
		b.nd.registry.announcer.AnnounceNow()
		return
	}
	if b.running {
		b.best.note(id, pow)
	}
}

// backupPick reports the node the Central appoints Backup, NoNode if it
// has heard no other candidate.
func (b *ballot) backupPick() netsim.NodeID { return netsim.NodeID(b.pick.id) }

// Static kernel callbacks for the election timers and the jittered
// candidacy transmission.
func electionDecide(x any)      { x.(*Node).decide() }
func electionWaitExpired(x any) { x.(*Node).waitExpired() }
func electionAnnounce(x any)    { x.(*Node).announceCandidacy() }

// initElection binds the election timers. The backoff (hardened only)
// paces repeated elections that keep finding no reachable Central:
// a fixed retry keeps the whole cohort hammering in lockstep through a
// long outage, while decorrelated jitter spreads the candidacies and caps
// the re-arm gap.
func (nd *Node) initElection() {
	nd.electWindow.Init(nd.k, electionDecide, nd)
	nd.electWait.Init(nd.k, electionWaitExpired, nd)
	if nd.cfg.Hardened {
		nd.electBackoff.Init(nd.k, electionRetry, 8*electionRetry)
	}
}

// electionCentralLost restarts the election when the Central was purged.
// The Backup does not run elections — it takes over on its own shorter
// timeout — but a Backup whose takeover state was lost participates like
// everyone else.
func (nd *Node) electionCentralLost() {
	if nd.IsBackup() {
		return
	}
	nd.startElection()
}

// electionCentralKnown stops any election in progress: somebody claimed
// the role. It also disarms the election for good on node retirement; the
// jittered candidacy event may still fire but checks running and does
// nothing.
func (nd *Node) electionCentralKnown() {
	if nd.running {
		nd.running = false
		nd.rec.running = false
	}
	nd.electWindow.Clear()
	nd.electWait.Clear()
	nd.electBackoff.Reset()
}

// rearmElection resets the election timers for workspace reuse after a
// Kernel.Reset; Rearm resets the record.
func (nd *Node) rearmElection() {
	nd.running = false
	nd.electWindow.Rearm()
	nd.electWait.Rearm()
	nd.electBackoff.Reset()
}

func (nd *Node) startElection() {
	if nd.running || nd.IsCentral() || nd.central != netsim.NoNode {
		return
	}
	nd.running = true
	nd.rec.running = true
	nd.rec.best = candidate{id: nd.rec.self, power: int32(nd.power)}
	// Small jitter decorrelates candidacies of simultaneously booting
	// nodes.
	nd.k.AfterArg(nd.k.UniformDuration(0, sim.Second), electionAnnounce, nd)
	nd.electWindow.SetAfter(electionWindow)
}

func (nd *Node) announceCandidacy() {
	if !nd.running {
		return
	}
	nd.nw.Multicast(nd.n.ID, DiscoveryGroup, netsim.Outgoing{Counted: true, Topic: TopicElection,
		Packet: wire.Packet{Kind: wire.ElectionAnnounce, N: uint64(nd.power)}}, 1)
}

// decide closes the election window: the best candidate becomes Central;
// everyone else waits for the winner's announcement and re-runs the
// election if it never comes (the winner may have failed mid-election).
func (nd *Node) decide() {
	if !nd.running {
		return
	}
	nd.running = false
	nd.rec.running = false
	if nd.rec.best.id == nd.rec.self {
		nd.ensureRegistry().activate()
		return
	}
	wait := electionRetry
	if nd.cfg.Hardened {
		wait = nd.electBackoff.Next()
	}
	nd.electWait.SetAfter(wait)
}

func (nd *Node) waitExpired() {
	if nd.central != netsim.NoNode || nd.IsCentral() {
		return
	}
	nd.startElection()
}
