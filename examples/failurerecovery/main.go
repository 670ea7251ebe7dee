// Failure recovery: the paper's §6.2 case study, reproduced exactly.
//
// A User's interfaces go down at 2023s and come back at 2833s; the
// service changes at 2507s, in the middle of the outage. Under UPnP the
// update notification is lost forever — "the User never regains
// consistency!" — while FRODO's SRN2 has the Manager retry when the
// User's subscription renewal arrives.
//
//	go run ./examples/failurerecovery
package main

import (
	"fmt"

	"repro/internal/discovery"
	"repro/internal/frodo"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/upnp"
)

// The §6.2 scenario constants.
const (
	userDownAt = 2023 * sim.Second
	userUpAt   = 2833 * sim.Second
	changeAt   = 2507 * sim.Second
	deadline   = 5400 * sim.Second
)

func main() {
	fmt.Println("=== §6.2 case study: user down 2023s-2833s, service changes at 2507s ===")
	fmt.Println()
	runUPnP()
	fmt.Println()
	runFrodo()
}

func printerSD() discovery.ServiceDescription {
	return discovery.ServiceDescription{
		DeviceType: "FireAlarm", ServiceType: "Alarm",
		Attributes: map[string]string{"status": "ON"},
	}
}

var query = discovery.Query{ServiceType: "Alarm"}

// consistencyPrinter reports every cache write at or above version 2.
func consistencyPrinter(label string) discovery.ConsistencyListener {
	seen := false
	return discovery.ListenerFunc(func(t sim.Time, user, mgr netsim.NodeID, v uint64) {
		if v >= 2 && !seen {
			seen = true
			fmt.Printf("  [%s] user regained consistency at %.3fs\n", label, t.Sec())
		}
	})
}

func runUPnP() {
	fmt.Println("--- UPnP (no SRN2) ---")
	k := sim.New(1)
	nw, err := netsim.New(k, netsim.DefaultConfig())
	if err != nil {
		panic(err)
	}
	cfg := upnp.DefaultConfig()
	mgr := upnp.NewManager(nw.AddNode("Manager"), cfg, printerSD())
	mgr.Start(1 * sim.Second)
	user := upnp.NewUser(nw.AddNode("User"), cfg, query, consistencyPrinter("upnp"))
	user.Start(2 * sim.Second)

	nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: user.ID(), Mode: netsim.FailBoth, Start: userDownAt, Duration: userUpAt - userDownAt,
	})
	k.At(changeAt, func() {
		fmt.Printf("  [upnp] service changes at %.0fs (status ON -> OFF)\n", changeAt.Sec())
		mgr.ChangeService(func(a map[string]string) { a["status"] = "OFF" })
	})
	k.Run(deadline)

	if got := user.CachedVersion(mgr.ID()); got < 2 {
		fmt.Printf("  [upnp] at the 5400s deadline the user still caches version %d: ", got)
		fmt.Println("it NEVER regained consistency (the NOTIFY was lost, the subscription survived).")
	}
}

func runFrodo() {
	fmt.Println("--- FRODO with 2-party subscription (SRN2) ---")
	k := sim.New(1)
	nw, err := netsim.New(k, netsim.DefaultConfig())
	if err != nil {
		panic(err)
	}
	cfg := frodo.TwoPartyConfig()

	central := frodo.NewNode(nw.AddNode("Central"), &cfg, frodo.Class300D, 100)
	central.Start(1 * sim.Second)
	mn := frodo.NewNode(nw.AddNode("Manager"), &cfg, frodo.Class300D, 5)
	mgr := mn.AttachManager(printerSD())
	mn.Start(2 * sim.Second)
	un := frodo.NewNode(nw.AddNode("User"), &cfg, frodo.Class300D, 1)
	user := un.AttachUser(query, consistencyPrinter("frodo"))
	un.Start(3 * sim.Second)

	nw.ScheduleFailure(netsim.InterfaceFailure{
		Node: user.ID(), Mode: netsim.FailBoth, Start: userDownAt, Duration: userUpAt - userDownAt,
	})
	k.At(changeAt, func() {
		fmt.Printf("  [frodo] service changes at %.0fs (status ON -> OFF)\n", changeAt.Sec())
		mgr.ChangeService(func(a map[string]string) { a["status"] = "OFF" })
	})
	k.Run(deadline)

	if got := user.CachedVersion(mgr.ID()); got >= 2 {
		fmt.Println("  [frodo] SRN2: the Manager cached the missed notification and resent it when")
		fmt.Println("          the User's subscription renewal arrived after recovery.")
	} else {
		fmt.Println("  [frodo] unexpected: user still stale")
	}
}
