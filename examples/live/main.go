// Live serving: boot a FRODO 2-party scenario as a wall-clock serving
// system and drive one real client through the whole loop — register a
// service over loopback HTTP, let the simulated protocol discover it,
// subscribe for pushed notifications, update the service, and receive
// the new version as a UDP datagram.
//
//	go run ./examples/live
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/experiment"
	"repro/internal/live"
	"repro/internal/verify"
)

func main() {
	// A tiny 2-party population: Central, Backup, the measured printer
	// Manager and two Users — plus whatever we attach from outside.
	// Dilation 0.0005 runs the fabric 2000× faster than the wall clock,
	// so second-scale protocol timers answer in milliseconds.
	ocfg := verify.DefaultOracleConfig(experiment.Frodo2P)
	srv, err := live.Serve(live.Config{
		System:   experiment.Frodo2P,
		Topology: experiment.Topology{Users: 2},
		Seed:     42,
		Dilation: 0.0005,
		Oracle:   &ocfg,
	}, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("live FRODO 2-party fabric serving on %s\n", srv.Addr())

	cl := live.NewClient(srv.Addr())

	// 1. Register a service: the gateway spawns a real FRODO Manager
	// node that registers with the live Central, exactly as the printer
	// did at boot.
	mgr, err := cl.Register(live.ServiceSpec{
		Device: "Thermostat", Service: "Climate",
		Attrs: map[string]string{"Target": "21C"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered Climate service as Manager node %d\n", mgr)

	// 2. Attach a User requiring that service, and subscribe to pushed
	// notifications of its cache writes.
	user, err := cl.Attach(live.ServiceQuery{Service: "Climate"})
	if err != nil {
		log.Fatal(err)
	}
	hub, err := live.NewNotifyHub()
	if err != nil {
		log.Fatal(err)
	}
	defer hub.Close()
	notes := hub.Chan(user)
	if err := cl.Subscribe(user, hub.Addr()); err != nil {
		log.Fatal(err)
	}

	// 3. Wait for the protocol to discover the service (search burst to
	// the Central, subscription to the 300D Manager — all on the
	// simulated fabric, just on the wall clock now).
	var rec live.Record
	for deadline := time.Now().Add(30 * time.Second); ; {
		recs, err := cl.Query(user)
		if err != nil {
			log.Fatal(err)
		}
		if len(recs) > 0 {
			rec = recs[0]
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("discovery timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("user %d discovered %s v%d (Target=%s)\n", user, rec.Service, rec.Version, rec.Attrs["Target"])

	// 4. Update the service and wait for the pushed notification.
	want, err := cl.Update(mgr, map[string]string{"Target": "19C"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published version %d; waiting for the notification...\n", want)
	for {
		select {
		case n := <-notes:
			if n.Version < want {
				continue // stale: the initial-discovery write
			}
			fmt.Printf("notified: user %d now caches Manager %d at v%d (virtual t=%.1fs)\n",
				n.User, n.Manager, n.Version, n.Virtual)
			if n.Version != want {
				log.Fatalf("received version %d; want %d", n.Version, want)
			}
			goto done
		case <-time.After(30 * time.Second):
			log.Fatal("no notification within 30s")
		}
	}
done:
	// 5. The consistency oracle audited the whole exchange online.
	if rep, ok := srv.OracleReport(); ok {
		fmt.Printf("%v\n", rep)
	}
}
