// Failure recovery: the paper's §6.2 case study as a scenario spec.
//
// A User's interfaces go down at 2023s and come back at 2833s; the
// service changes at 2507s, in the middle of the outage. Under UPnP the
// update notification is lost forever — "the User never regains
// consistency!" — while FRODO's SRN2 has the Manager retry when the
// User's subscription renewal arrives. The outage is data: a role-named
// entry of the spec's outages, so the printed spec replays through
// `sdverify -scenario` on every system.
//
//	go run ./examples/failurerecovery
package main

import (
	"fmt"

	"repro/internal/experiment"
)

func main() {
	spec := experiment.ScenarioSpec{
		Seed:         1,
		ChangeMinSec: 2507,
		ChangeMaxSec: 2507,
		Topology:     experiment.SpecTopology{Users: 1},
		Outages:      []experiment.SpecOutage{{Node: "user:0", Mode: "both", StartSec: 2023, DurationSec: 810}},
	}
	data, err := spec.Encode()
	if err != nil {
		panic(err)
	}
	fmt.Printf("=== §6.2 case study: user down 2023s-2833s, service changes at 2507s ===\n%s", data)
	for _, sys := range []experiment.System{experiment.UPnP, experiment.Frodo2P} {
		fmt.Printf("\n--- %s ---\n", sys)
		_, log := experiment.RunLogged(spec.RunSpec(sys), false)
		for _, line := range log {
			fmt.Println(line)
		}
	}
	fmt.Println("\nUPnP: the NOTIFY was lost during the outage and the subscription survived it.")
	fmt.Println("FRODO SRN2: the Manager cached the missed notification and resent it when")
	fmt.Println("the User's subscription renewal arrived after recovery.")
}
