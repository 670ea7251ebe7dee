package frodo

import (
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Two Managers with different services, two Users with different
// requirements: subscriptions, updates and purges must route to the
// right parties only.
func TestMultiManagerRouting(t *testing.T) {
	k := sim.New(11)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	cfg := DefaultConfig()

	central := NewNode(nw.AddNode("Central"), &cfg, Class300D, 100)
	central.Start(1 * sim.Second)

	printerNode := NewNode(nw.AddNode("Printer"), &cfg, Class3D, 5)
	printer := printerNode.AttachManager(discovery.ServiceDescription{
		DeviceType: "Printer", ServiceType: "ColorPrinter",
		Attributes: map[string]string{"tray": "full"},
	})
	printerNode.Start(2 * sim.Second)

	camNode := NewNode(nw.AddNode("Camera"), &cfg, Class3D, 5)
	cam := camNode.AttachManager(discovery.ServiceDescription{
		DeviceType: "Camera", ServiceType: "VideoFeed",
		Attributes: map[string]string{"res": "720p"},
	})
	camNode.Start(2500 * sim.Millisecond)

	versions := map[netsim.NodeID]map[netsim.NodeID]uint64{} // user -> mgr -> v
	listener := discovery.ListenerFunc(func(_ sim.Time, user, mgr netsim.NodeID, v uint64) {
		if versions[user] == nil {
			versions[user] = map[netsim.NodeID]uint64{}
		}
		if v > versions[user][mgr] {
			versions[user][mgr] = v
		}
	})

	puNode := NewNode(nw.AddNode("PrintUser"), &cfg, Class3D, 1)
	pu := puNode.AttachUser(discovery.Query{ServiceType: "ColorPrinter"}, listener)
	puNode.Start(3 * sim.Second)
	cuNode := NewNode(nw.AddNode("CamUser"), &cfg, Class3D, 1)
	cu := cuNode.AttachUser(discovery.Query{ServiceType: "VideoFeed"}, listener)
	cuNode.Start(4 * sim.Second)

	k.Run(100 * sim.Second)
	if got := central.Registry().registrations.Len(); got != 2 {
		t.Fatalf("central holds %d registrations, want 2", got)
	}
	if pu.cachedVersion(printer.ID()) != 1 || cu.cachedVersion(cam.ID()) != 1 {
		t.Fatal("users did not discover their services")
	}
	if pu.cachedVersion(cam.ID()) != 0 || cu.cachedVersion(printer.ID()) != 0 {
		t.Error("users cached services they never asked for")
	}

	// Each change reaches only the interested user.
	printer.ChangeService(func(a map[string]string) { a["tray"] = "empty" })
	k.Run(200 * sim.Second)
	if versions[pu.ID()][printer.ID()] != 2 {
		t.Error("printer user missed the printer update")
	}
	if versions[cu.ID()][printer.ID()] != 0 {
		t.Error("camera user received the printer update")
	}

	cam.ChangeService(func(a map[string]string) { a["res"] = "1080p" })
	k.Run(300 * sim.Second)
	if versions[cu.ID()][cam.ID()] != 2 {
		t.Error("camera user missed the camera update")
	}
	if versions[pu.ID()][cam.ID()] != 0 {
		t.Error("printer user received the camera update")
	}

	// Purging one manager must not disturb the other's subscribers.
	nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: printer.ID(), Mode: netsim.FailBoth,
		Start: 320 * sim.Second, Duration: 5000 * sim.Second,
	})
	k.Run(2500 * sim.Second) // printer registration expires, ManagerGone
	if got := central.Registry().registrations.Len(); got != 1 {
		t.Errorf("central holds %d registrations after printer death, want 1", got)
	}
	cam.ChangeService(func(a map[string]string) { a["res"] = "4k" })
	k.Run(2600 * sim.Second)
	if versions[cu.ID()][cam.ID()] != 3 {
		t.Error("camera update lost after unrelated manager purge")
	}
}
