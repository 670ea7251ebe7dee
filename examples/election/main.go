// Election: FRODO's robustness machinery (§3) in action — the 300D nodes
// elect the most powerful node as the Central, the Central appoints a
// Backup, the Central fails, the Backup takes over, and when the original
// Central recovers it wins the role back.
//
//	go run ./examples/election
package main

import (
	"fmt"

	"repro/internal/discovery"
	"repro/internal/frodo"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func main() {
	k := sim.New(7)
	nw, err := netsim.New(k, netsim.DefaultConfig())
	if err != nil {
		panic(err)
	}
	cfg := frodo.TwoPartyConfig()

	// Four 300D devices with different capabilities.
	tv := frodo.NewNode(nw.AddNode("SetTopBox"), &cfg, frodo.Class300D, 100)
	nas := frodo.NewNode(nw.AddNode("NAS"), &cfg, frodo.Class300D, 80)
	hub := frodo.NewNode(nw.AddNode("Hub"), &cfg, frodo.Class300D, 60)
	cam := frodo.NewNode(nw.AddNode("Camera"), &cfg, frodo.Class300D, 20)
	cam.AttachManager(discovery.ServiceDescription{
		DeviceType: "Camera", ServiceType: "VideoFeed",
		Attributes: map[string]string{"resolution": "720p"},
	})
	nodes := []*frodo.Node{tv, nas, hub, cam}
	for i, nd := range nodes {
		nd.Start(sim.Duration(i+1) * sim.Second)
	}

	report := func(when string) {
		fmt.Printf("%s\n", when)
		for _, nd := range nodes {
			role := "member"
			if nd.IsCentral() {
				role = "CENTRAL"
			} else if nd.IsBackup() {
				role = "backup"
			}
			fmt.Printf("  %-10s power=%3d  role=%-7s  believes central = node %d\n",
				nw.Node(nd.ID()).Name, powerOf(nd), role, nd.Central())
		}
		fmt.Println()
	}

	k.Run(60 * sim.Second)
	report("After boot (t=60s): the most powerful 300D node won the election")

	// The Central's interfaces fail for 4000s.
	nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: tv.ID(), Mode: netsim.FailBoth,
		Start: 100 * sim.Second, Duration: 4000 * sim.Second,
	})

	k.Run(3400 * sim.Second)
	report("After the Central has been silent past the Backup timeout (t=3400s)")

	k.Run(7000 * sim.Second)
	report("After the original Central recovered (t=7000s): higher power wins the role back")
}

func powerOf(nd *frodo.Node) int {
	// The example fixes powers at construction; mirror them for display.
	switch nd.ID() {
	case 0:
		return 100
	case 1:
		return 80
	case 2:
		return 60
	default:
		return 20
	}
}
