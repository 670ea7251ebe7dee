// Quickstart: run one FRODO scenario and watch consistency maintenance
// work — the Fig. 1 message flow end to end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/experiment"
)

func main() {
	// The paper's scenario: 5 Users discover a color printer within the
	// first 100s; at a random time the printer's service description
	// changes; the protocol propagates the update.
	spec := experiment.RunSpec{
		System: experiment.Frodo2P,
		Lambda: 0, // no failures: the happy path of Fig. 1
		Seed:   42,
		Params: experiment.DefaultParams(),
	}
	res, log := experiment.RunLogged(spec, true)

	fmt.Println("=== FRODO with 2-party subscription, no failures ===")
	fmt.Println()
	fmt.Println("Event log around the service change:")
	printed := 0
	for _, line := range log {
		// The full log covers 5400s of leases and announcements; show the
		// update exchange.
		if printed > 40 {
			fmt.Println("  ...")
			break
		}
		if containsAny(line, "ServiceUpdate", "UpdateAck", "note") {
			fmt.Println(" ", line)
			printed++
		}
	}

	fmt.Println()
	fmt.Printf("Service changed at %.0fs; all %d Users reached the new version:\n",
		res.ChangeAt.Sec(), len(res.Users))
	for _, u := range res.Users {
		fmt.Printf("  user %d: consistent after %.6fs\n", u.User, (u.At - res.ChangeAt).Sec())
	}
	fmt.Printf("\nUpdate effort: %d discovery messages — the paper's Table 2 value N+2 = 7.\n", res.Effort)
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if contains(s, sub) {
			return true
		}
	}
	return false
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
