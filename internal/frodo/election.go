package frodo

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// elector runs the Central election among 300D nodes: every candidate
// multicasts its power, collects competing candidacies for the election
// window, and the most powerful node (ties broken by highest ID) declares
// itself Central. "The 300D nodes elect the most powerful node as the
// Registry" (§3).
type elector struct {
	nd *Node

	running bool
	bestID  netsim.NodeID
	bestPow int
	window  *sim.Deadline
	waitWin *sim.Deadline

	// backoff (CentralRepair only) paces repeated elections that keep
	// finding no reachable Central: a fixed retry keeps the whole cohort
	// hammering in lockstep through a long outage, while decorrelated
	// jitter spreads the candidacies and caps the re-arm gap.
	backoff *core.Backoff
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

func newElector(nd *Node) *elector {
	e := &elector{nd: nd}
	e.window = sim.NewDeadline(nd.k, e.decide)
	e.waitWin = sim.NewDeadline(nd.k, e.waitExpired)
	if nd.cfg.Harden.CentralRepair {
		e.backoff = core.NewBackoff(nd.k, nd.cfg.ElectionRetry, 8*nd.cfg.ElectionRetry)
	}
	return e
}

// start begins an election at boot.
func (e *elector) start() { e.startElection() }

// centralLost restarts the election when the Central was purged. The
// Backup does not run elections — it takes over on its own shorter
// timeout — but a Backup whose takeover state was lost participates like
// everyone else.
func (e *elector) centralLost() {
	if e.nd.IsBackup() {
		return
	}
	e.startElection()
}

// centralKnown stops any election in progress: somebody claimed the role.
func (e *elector) centralKnown() {
	e.running = false
	e.window.Clear()
	e.waitWin.Clear()
	if e.backoff != nil {
		e.backoff.Reset()
	}
}

// stop disarms the elector for good (node retirement). The jittered
// candidacy event may still fire but checks running and does nothing.
func (e *elector) stop() { e.centralKnown() }

// rearm resets the elector for workspace reuse after a Kernel.Reset.
func (e *elector) rearm() {
	e.running = false
	e.bestID = netsim.NoNode
	e.bestPow = 0
	e.window.Rearm()
	e.waitWin.Rearm()
	if e.backoff != nil {
		e.backoff.Reset()
	}
}

func (e *elector) startElection() {
	if e.running || e.nd.IsCentral() || e.nd.central != netsim.NoNode {
		return
	}
	e.running = true
	e.bestID = e.nd.n.ID
	e.bestPow = e.nd.power
	// Small jitter decorrelates candidacies of simultaneously booting
	// nodes.
	e.nd.k.AfterArg(e.nd.k.UniformDuration(0, sim.Second), electorAnnounce, e)
	e.window.SetAfter(e.nd.cfg.ElectionWindow)
}

// electorAnnounce is the static kernel callback for the jittered
// candidacy transmission.
func electorAnnounce(x any) { x.(*elector).announceCandidacy() }

func (e *elector) announceCandidacy() {
	if !e.running {
		return
	}
	e.nd.nw.Multicast(e.nd.n.ID, DiscoveryGroup, netsim.Outgoing{
		Kind:    kindOf(ElectionAnnounce{}),
		Counted: true,
		Payload: ElectionAnnounce{Power: e.nd.power},
	}, 1)
}

// onCandidate processes a competing candidacy. A sitting Central asserts
// itself by announcing immediately, so late candidates adopt it instead
// of electing a rival.
func (e *elector) onCandidate(from netsim.NodeID, power int) {
	e.nd.backupPick.note(e.nd.n.ID, from, power)
	if e.nd.IsCentral() {
		e.nd.registry.announcer.AnnounceNow()
		return
	}
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
func (e *elector) decide() {
	if !e.running {
		return
	}
	e.running = false
	if e.bestID == e.nd.n.ID {
		e.nd.registry.activate()
		return
	}
	wait := e.nd.cfg.ElectionRetry
	if e.backoff != nil {
		wait = e.backoff.Next()
	}
	e.waitWin.SetAfter(wait)
}

func (e *elector) waitExpired() {
	if e.nd.central != netsim.NoNode || e.nd.IsCentral() {
		return
	}
	e.startElection()
}
