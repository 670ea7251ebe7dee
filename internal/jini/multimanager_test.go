package jini

import (
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Two Managers, two Users with disjoint requirements: event routing at
// the lookup service must follow the event registrations, and the PR1
// notification-request matching must respect the query.
func TestMultiManagerEventRouting(t *testing.T) {
	k := sim.New(12)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	cfg := DefaultConfig()

	reg := NewRegistry(nw.AddNode("Registry"), cfg)
	reg.Start(1 * sim.Second)

	printer := NewManager(nw.AddNode("Printer"), cfg, discovery.ServiceDescription{
		DeviceType: "Printer", ServiceType: "ColorPrinter",
		Attributes: map[string]string{"tray": "full"},
	})
	printer.Start(2 * sim.Second)
	cam := NewManager(nw.AddNode("Camera"), cfg, discovery.ServiceDescription{
		DeviceType: "Camera", ServiceType: "VideoFeed",
		Attributes: map[string]string{"res": "720p"},
	})
	cam.Start(2500 * sim.Millisecond)

	versions := map[netsim.NodeID]map[netsim.NodeID]uint64{}
	listener := discovery.ListenerFunc(func(_ sim.Time, user, mgr netsim.NodeID, v uint64) {
		if versions[user] == nil {
			versions[user] = map[netsim.NodeID]uint64{}
		}
		if v > versions[user][mgr] {
			versions[user][mgr] = v
		}
	})

	pu := NewUser(nw.AddNode("PrintUser"), cfg, discovery.Query{ServiceType: "ColorPrinter"}, listener)
	pu.Start(3 * sim.Second)
	cu := NewUser(nw.AddNode("CamUser"), cfg, discovery.Query{ServiceType: "VideoFeed"}, listener)
	cu.Start(4 * sim.Second)

	k.Run(100 * sim.Second)
	if !reg.registered(printer.ID()) || !reg.registered(cam.ID()) {
		t.Fatal("managers not registered")
	}
	if pu.cachedVersion(printer.ID()) != 1 || cu.cachedVersion(cam.ID()) != 1 {
		t.Fatal("users did not discover their services")
	}

	printer.ChangeService(func(a map[string]string) { a["tray"] = "empty" })
	cam.ChangeService(func(a map[string]string) { a["res"] = "1080p" })
	k.Run(200 * sim.Second)

	if versions[pu.ID()][printer.ID()] != 2 {
		t.Error("printer user missed its event")
	}
	if versions[cu.ID()][cam.ID()] != 2 {
		t.Error("camera user missed its event")
	}
	if versions[pu.ID()][cam.ID()] != 0 || versions[cu.ID()][printer.ID()] != 0 {
		t.Error("events crossed subscriptions")
	}
}

// A notification request matches by query: a late-joining user interested
// in a not-yet-registered service is notified when it registers, but not
// about other services.
func TestNotificationRequestQueryMatching(t *testing.T) {
	k := sim.New(13)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	cfg := DefaultConfig()
	reg := NewRegistry(nw.AddNode("Registry"), cfg)
	reg.Start(1 * sim.Second)

	u := NewUser(nw.AddNode("User"), cfg, discovery.Query{ServiceType: "VideoFeed"}, nil)
	u.Start(2 * sim.Second)
	k.Run(50 * sim.Second) // user joined; nothing registered yet

	// A non-matching manager registers: the user must not adopt it.
	printer := NewManager(nw.AddNode("Printer"), cfg, discovery.ServiceDescription{
		DeviceType: "Printer", ServiceType: "ColorPrinter",
		Attributes: map[string]string{},
	})
	printer.Start(0)
	k.Run(100 * sim.Second)
	if got := u.cachedVersion(printer.ID()); got != 0 {
		t.Errorf("user adopted a non-matching service (v%d)", got)
	}

	// The matching manager registers later: PR1 notifies the request.
	cam := NewManager(nw.AddNode("Camera"), cfg, discovery.ServiceDescription{
		DeviceType: "Camera", ServiceType: "VideoFeed",
		Attributes: map[string]string{},
	})
	cam.Start(0)
	k.Run(200 * sim.Second)
	if got := u.cachedVersion(cam.ID()); got != 1 {
		t.Errorf("notification request did not deliver the future registration (v%d)", got)
	}
	if len(u.subscribed) == 0 {
		t.Error("user did not subscribe after the registration notification")
	}
}
