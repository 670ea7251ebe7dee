package core

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestAnnouncerTrain(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	sender := nw.AddNode("registry")
	recv := nw.AddNode("user")
	got := 0
	recv.SetEndpoint(netsim.EndpointFunc(func(m *netsim.Message) { got++ }))
	g := netsim.Group(1)
	nw.Join(sender.ID, g)
	nw.Join(recv.ID, g)

	builds := 0
	a := NewAnnouncer(nw, sender.ID, g, 120*sim.Second, 6, func() netsim.Outgoing {
		builds++
		return netsim.Outgoing{Kind: "Announce", Counted: true}
	})
	a.Start(0)
	k.Run(250 * sim.Second) // trains at 0, 120, 240

	if builds != 3 {
		t.Errorf("payload built %d times, want 3 trains", builds)
	}
	if got != 18 {
		t.Errorf("receiver got %d frames, want 18 (3 trains x 6 copies)", got)
	}
	if c := nw.Counters().CountedInWindow(0, k.Now()); c != 18 {
		t.Errorf("counted sends = %d, want 18", c)
	}
	a.Stop()
	if a.Running() {
		t.Error("announcer running after Stop")
	}
	k.Run(1000 * sim.Second)
	if builds != 3 {
		t.Error("announcer kept announcing after Stop")
	}
}

func TestAnnouncerAnnounceNow(t *testing.T) {
	k := sim.New(1)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	sender := nw.AddNode("")
	recv := nw.AddNode("")
	got := 0
	recv.SetEndpoint(netsim.EndpointFunc(func(*netsim.Message) { got++ }))
	g := netsim.Group(1)
	nw.Join(sender.ID, g)
	nw.Join(recv.ID, g)
	a := NewAnnouncer(nw, sender.ID, g, 1000*sim.Second, 2, func() netsim.Outgoing {
		return netsim.Outgoing{Kind: "Announce"}
	})
	a.AnnounceNow() // one train without starting the schedule
	k.Run(10 * sim.Second)
	if got != 2 {
		t.Errorf("got %d frames, want 2", got)
	}
	if a.Running() {
		t.Error("AnnounceNow armed the schedule")
	}
}
