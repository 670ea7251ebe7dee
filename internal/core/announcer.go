package core

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Announcer drives the periodic multicast announcement trains of §5
// Step 4: the UPnP Manager (6 messages every 1800s), the Jini Registry
// (6 every 120s), the FRODO Central (2 every 1200s), and FRODO 3D
// Managers announcing until they find the Registry. The payload is built
// fresh per train so announcements carry current state.
type Announcer struct {
	nw     *netsim.Network
	from   netsim.NodeID
	group  netsim.Group
	copies int
	make   func() netsim.Outgoing
	tick   sim.Ticker
	gate   func() bool
}

// NewAnnouncer creates a stopped announcer.
func NewAnnouncer(nw *netsim.Network, from netsim.NodeID, group netsim.Group,
	period sim.Duration, copies int, make func() netsim.Outgoing) *Announcer {
	a := &Announcer{nw: nw, from: from, group: group, copies: copies, make: make}
	a.tick.Init(nw.Kernel(), period, announcerTick, a)
	return a
}

// Start begins announcing after the given delay (protocol boot jitter),
// then every period. Starting a running announcer re-arms it.
func (a *Announcer) Start(initialDelay sim.Duration) { a.tick.Start(initialDelay) }

// Stop halts the train (e.g. a 3D Manager that found the Registry, or a
// demoted Central).
func (a *Announcer) Stop() { a.tick.Stop() }

// Running reports whether the announcer is armed.
func (a *Announcer) Running() bool { return a.tick.Running() }

// AnnounceNow emits one train immediately without disturbing the schedule
// (used on boot and on Central takeover).
func (a *Announcer) AnnounceNow() { a.announce() }

// Rearm resets the announcer for workspace reuse after a Kernel.Reset.
func (a *Announcer) Rearm() { a.tick.Rearm() }

// SetGate installs a predicate consulted before each train: when it
// returns false the train is skipped (the schedule keeps ticking). The
// hardening layer uses it to silence a Central whose own interface is
// down — with a dead transmitter the frames would be dropped anyway, and
// with a dead receiver the node cannot hear requests or a stronger rival,
// so either way skipping the train keeps the node's advertised claim
// honest. A nil gate (the default) never skips.
func (a *Announcer) SetGate(gate func() bool) { a.gate = gate }

// announcerTick is the static ticker callback shared by every announcer.
func announcerTick(x any) { x.(*Announcer).announce() }

func (a *Announcer) announce() {
	if a.gate != nil && !a.gate() {
		return
	}
	a.nw.Multicast(a.from, a.group, a.make(), a.copies)
}
