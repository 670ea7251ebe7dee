// Command sdlived is the live service-discovery daemon: it boots one of
// the five simulated systems as a wall-clock serving system and exposes
// it to real clients over loopback HTTP (requests) and UDP (pushed
// update notifications), with the run-time consistency oracle auditing
// the live run online.
//
// Usage:
//
//	sdlived -system frodo2p -dilation 0.001 -addr 127.0.0.1:8460
//	sdlived -system upnp -users 100 -loss 0.05 -harden
//
// The daemon serves until SIGINT/SIGTERM, then prints the oracle report
// and exits nonzero if any invariant was violated. The full telemetry
// registry is served as Prometheus text on /metrics, as expvar under
// /debug/vars, and profiled under /debug/pprof, all on the same
// listener; SIGUSR1 dumps the flight-recorder ring to stderr, and a
// dirty oracle report at shutdown dumps it too.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/experiment"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/verify"
)

func main() {
	design := experiment.Flags{System: experiment.Frodo2P,
		Spec: experiment.ScenarioSpec{Seed: 1, Topology: experiment.SpecTopology{Users: 5}}}
	design.Register(flag.CommandLine, "system", "seed", "loss", "harden", "users", "managers", "registries", "services")
	var (
		addr     = flag.String("addr", "127.0.0.1:8460", "HTTP listen address (port 0 picks one)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening")
		dilation = flag.Float64("dilation", 0.001, "wall seconds per virtual second (0.001 = 1000× faster than real time)")
		noOracle = flag.Bool("no-oracle", false, "serve without the consistency oracle attached")
	)
	flag.Parse()

	if err := design.Spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "sdlived: %v\n", err)
		os.Exit(2)
	}
	if *dilation <= 0 {
		fmt.Fprintf(os.Stderr, "sdlived: -dilation must be positive, got %v\n", *dilation)
		os.Exit(2)
	}
	sys, p := design.System, design.Spec.Params()
	cfg := live.Config{
		System:   sys,
		Topology: p.Topology,
		Options:  design.Spec.Options(),
		Seed:     p.BaseSeed,
		Dilation: *dilation,
	}
	if !*noOracle {
		ocfg := verify.DefaultOracleConfig(sys)
		cfg.Oracle = &ocfg
	}
	srv, err := live.Serve(cfg, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdlived: %v\n", err)
		os.Exit(1)
	}

	expvar.Publish("sdlived", expvar.Func(func() any { return srv.Gateway.Stats() }))
	expvar.Publish("sdlived_metrics", expvar.Func(func() any { return srv.Driver.Telemetry().Snapshot() }))
	fmt.Printf("sdlived: %v serving on %s (dilation %g, oracle %v)\n",
		sys, srv.Addr(), *dilation, !*noOracle)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sdlived: -addr-file: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	dump := make(chan os.Signal, 1)
	signal.Notify(dump, syscall.SIGUSR1)
	for serving := true; serving; {
		select {
		case <-dump:
			// Operator-requested flight dump: the recent trace tail, without
			// stopping the daemon.
			fmt.Fprintln(os.Stderr, "sdlived: SIGUSR1 flight dump")
			dumpFlight(srv.Driver.FlightDump())
		case <-sig:
			serving = false
		}
	}

	stats := srv.Gateway.Stats()
	srv.Close()
	fmt.Printf("sdlived: served %d ops, %d notifications (%d dropped), %d events over %.0f virtual seconds\n",
		stats.Ops, stats.NotifySent, stats.NotifyDropped, stats.EventsFired, stats.VirtualSec)
	if rep, ok := srv.OracleReport(); ok {
		fmt.Printf("sdlived: %v\n", rep)
		if !rep.Clean() {
			// The oracle froze the recorders at the first violation, so the
			// rings hold the frames leading up to the breach.
			fmt.Fprintln(os.Stderr, "sdlived: flight-recorder state at first violation:")
			dumpFlight(srv.Driver.FlightDump())
			os.Exit(1)
		}
	}
}

func dumpFlight(snaps []obs.FlightSnapshot) {
	if err := obs.WriteFlightJSON(os.Stderr, snaps); err != nil {
		fmt.Fprintf(os.Stderr, "sdlived: flight dump: %v\n", err)
	}
}
