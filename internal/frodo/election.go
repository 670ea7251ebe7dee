package frodo

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// elector is the state of the Central election among 300D nodes: every
// candidate multicasts its power, collects competing candidacies for the
// election window, and the most powerful node (ties broken by highest ID)
// declares itself Central. "The 300D nodes elect the most powerful node as
// the Registry" (§3).
//
// It is embedded in the Node (a 3C/3D node's stays idle forever) and holds
// only what a received candidacy reads; the election timers live with the
// Node's other timers (electWindow, electWait, electBackoff).
type elector struct {
	bestID  netsim.NodeID
	bestPow int
	running bool
}

// backupCandidate is the running maximum, by (power, id), over every
// candidacy a node has heard from another node. It stands in for a map of
// each peer's last announced power, of which only the maximum was ever
// read, and selects the same node as long as no ID re-announces with a
// LOWER power than before: a device's power is fixed at construction, and
// a recycled slot can only pass from a departed User (power 1, the
// minimum — Detach declines for Managers, the Central and the Backup) to
// a tenant at least as strong. Under that invariant each ID's last power
// is its highest, so the maximum over last powers is the maximum over all.
type backupCandidate struct {
	id    netsim.NodeID
	power int
}

var noBackupCandidate = backupCandidate{id: netsim.NoNode, power: -1}

// note folds in a candidacy from a node other than self.
func (b *backupCandidate) note(self, from netsim.NodeID, power int) {
	if from != self && (power > b.power || (power == b.power && from > b.id)) {
		b.id, b.power = from, power
	}
}

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
		nd.electBackoff.Init(nd.k, nd.cfg.ElectionRetry, 8*nd.cfg.ElectionRetry)
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
// the role. It also disarms the elector for good on node retirement; the
// jittered candidacy event may still fire but checks running and does
// nothing.
func (nd *Node) electionCentralKnown() {
	nd.elector.running = false
	nd.electWindow.Clear()
	nd.electWait.Clear()
	nd.electBackoff.Reset()
}

// rearmElection resets the elector for workspace reuse after a
// Kernel.Reset.
func (nd *Node) rearmElection() {
	nd.elector = elector{bestID: netsim.NoNode}
	nd.electWindow.Rearm()
	nd.electWait.Rearm()
	nd.electBackoff.Reset()
}

func (nd *Node) startElection() {
	if nd.elector.running || nd.IsCentral() || nd.central != netsim.NoNode {
		return
	}
	nd.elector = elector{bestID: nd.n.ID, bestPow: nd.power, running: true}
	// Small jitter decorrelates candidacies of simultaneously booting
	// nodes.
	nd.k.AfterArg(nd.k.UniformDuration(0, sim.Second), electionAnnounce, nd)
	nd.electWindow.SetAfter(nd.cfg.ElectionWindow)
}

func (nd *Node) announceCandidacy() {
	if !nd.elector.running {
		return
	}
	nd.nw.Multicast(nd.n.ID, DiscoveryGroup, netsim.Outgoing{Counted: true, Topic: TopicElection,
		Packet: wire.Packet{Kind: wire.ElectionAnnounce, N: uint64(nd.power)}}, 1)
}

// onCandidate processes a competing candidacy. A sitting Central asserts
// itself by announcing immediately, so late candidates adopt it instead
// of electing a rival. A 3C/3D node lands here too: it never runs an
// election, so beyond the (unused) Backup pick this is a no-op for it.
func (nd *Node) onCandidate(from netsim.NodeID, power int) {
	nd.backupPick.note(nd.n.ID, from, power)
	if nd.IsCentral() {
		nd.registry.announcer.AnnounceNow()
		return
	}
	e := &nd.elector
	if !e.running {
		return
	}
	if power > e.bestPow || (power == e.bestPow && from > e.bestID) {
		e.bestID = from
		e.bestPow = power
	}
}

// decide closes the election window: the best candidate becomes Central;
// everyone else waits for the winner's announcement and re-runs the
// election if it never comes (the winner may have failed mid-election).
func (nd *Node) decide() {
	if !nd.elector.running {
		return
	}
	nd.elector.running = false
	if nd.elector.bestID == nd.n.ID {
		nd.ensureRegistry().activate()
		return
	}
	wait := nd.cfg.ElectionRetry
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
