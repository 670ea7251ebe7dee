package live

import (
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/verify"
)

// The driver must serialize injections into the event loop in order,
// at non-decreasing virtual times.
func TestDriverInjectionOrdering(t *testing.T) {
	d, err := New(Config{System: experiment.Frodo2P, Dilation: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Stop()

	var mu sync.Mutex
	var order []int
	var times []sim.Time
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		i := i
		wg.Add(1)
		if err := d.Inject(func() {
			mu.Lock()
			order = append(order, i)
			times = append(times, d.k.Now())
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("injections ran out of order: %v", order[:i+1])
		}
		if times[i] < times[i-1] {
			t.Fatalf("virtual time rewound across injections: %v then %v", times[i-1], times[i])
		}
	}
}

// After Stop, Inject and Call fail with ErrStopped instead of hanging.
func TestDriverStopped(t *testing.T) {
	d, err := New(Config{System: experiment.UPnP, Dilation: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Stop()
	if err := d.Call(func() {}); err != ErrStopped {
		t.Fatalf("Call after Stop = %v; want ErrStopped", err)
	}
}

// serveTest boots a server for one system at an aggressive dilation.
func serveTest(t *testing.T, sys experiment.System) (*Server, *Client) {
	t.Helper()
	ocfg := verify.DefaultOracleConfig(sys)
	srv, err := Serve(Config{
		System:   sys,
		Topology: experiment.Topology{Users: 2},
		Seed:     7,
		Dilation: 1e-5, // 100,000× faster than the wall clock
		Oracle:   &ocfg,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.Addr())
}

// waitDiscovered polls the user's cache until the service shows up.
func waitDiscovered(t *testing.T, cl *Client, user int, wait time.Duration) []Record {
	t.Helper()
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		recs, err := cl.Query(user)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if len(recs) > 0 {
			return recs
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("user %d never discovered its service within %v", user, wait)
	return nil
}

// The full serving loop on every system: register a service through
// the gateway, discover it from a client User, subscribe, update, and
// receive the pushed notification with the right version — with the
// consistency oracle attached and clean throughout.
func TestLiveServeRoundTrip(t *testing.T) {
	for _, sys := range experiment.Systems() {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			t.Parallel()
			srv, cl := serveTest(t, sys)

			mgr, err := cl.Register(ServiceSpec{Device: "Cam", Service: "PanTilt",
				Attrs: map[string]string{"Zoom": "3x"}})
			if err != nil {
				t.Fatalf("register: %v", err)
			}
			user, err := cl.Attach(ServiceQuery{Service: "PanTilt"})
			if err != nil {
				t.Fatalf("attach: %v", err)
			}
			hub, err := NewNotifyHub()
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			notes := hub.Chan(user)
			if err := cl.Subscribe(user, hub.Addr()); err != nil {
				t.Fatalf("subscribe: %v", err)
			}

			recs := waitDiscovered(t, cl, user, 30*time.Second)
			if recs[0].Manager != mgr || recs[0].Service != "PanTilt" {
				t.Fatalf("discovered %+v; want manager %d service PanTilt", recs[0], mgr)
			}

			v, err := cl.Update(mgr, map[string]string{"Zoom": "10x"})
			if err != nil {
				t.Fatalf("update: %v", err)
			}
			if v != 2 {
				t.Fatalf("update version = %d; want 2", v)
			}
			deadline := time.After(30 * time.Second)
			for {
				select {
				case n := <-notes:
					if n.Version >= 2 {
						if n.Manager != mgr {
							t.Fatalf("notification for manager %d; want %d", n.Manager, mgr)
						}
						goto notified
					}
				case <-deadline:
					t.Fatal("no pushed notification of version 2")
				}
			}
		notified:
			// The updated description must be readable from the cache.
			recs, err = cl.Query(user)
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			if len(recs) == 0 || recs[0].Version < 2 || recs[0].Attrs["Zoom"] != "10x" {
				t.Fatalf("cache after update: %+v", recs)
			}

			rep, err := cl.Oracle()
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if !rep.Attached || !rep.Clean {
				t.Fatalf("oracle report: %+v", rep)
			}
			// Once the driver has stopped the report is read directly.
			srv.Driver.Stop()
			if final, ok := srv.OracleReport(); !ok || !final.Clean() {
				t.Fatalf("oracle report after stop: ok=%v %+v", ok, final)
			}
		})
	}
}

// Lookup must answer from live protocol state with real frames through
// the fabric: Registry repositories for Jini/FRODO, Manager M-SEARCH
// responses for UPnP.
func TestLiveLookup(t *testing.T) {
	for _, sys := range []experiment.System{experiment.UPnP, experiment.Jini1, experiment.Frodo2P} {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			t.Parallel()
			_, cl := serveTest(t, sys)

			if _, err := cl.Register(ServiceSpec{Device: "Sensor", Service: "Thermo"}); err != nil {
				t.Fatalf("register: %v", err)
			}
			// The registration needs fabric time to reach the Registry
			// (or, for UPnP, the Manager just needs to answer M-SEARCH).
			deadline := time.Now().Add(30 * time.Second)
			for {
				recs, err := cl.Lookup(ServiceQuery{Service: "Thermo"})
				if err != nil {
					t.Fatalf("lookup: %v", err)
				}
				if len(recs) > 0 {
					if recs[0].Service != "Thermo" {
						t.Fatalf("lookup returned %+v", recs[0])
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("lookup never found the registered service")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// Gateway validation: unknown users and managers are 404s, not panics.
func TestGatewayValidation(t *testing.T) {
	_, cl := serveTest(t, experiment.Jini1)
	if _, err := cl.Query(9999); err == nil {
		t.Error("query of unknown user succeeded")
	}
	if _, err := cl.Update(9999, nil); err == nil {
		t.Error("update of unknown manager succeeded")
	}
	if err := cl.Subscribe(9999, "127.0.0.1:1"); err == nil {
		t.Error("subscribe of unknown user succeeded")
	}
	if _, err := cl.Register(ServiceSpec{}); err == nil {
		t.Error("register with empty service type succeeded")
	}
}

// Stop on a driver that was never started must be a clean no-op
// shutdown, not a deadlock.
func TestDriverStopBeforeStart(t *testing.T) {
	d, err := New(Config{System: experiment.UPnP, Dilation: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { d.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked on a never-started driver")
	}
	if err := d.Inject(func() {}); err != ErrStopped {
		t.Fatalf("Inject after Stop = %v; want ErrStopped", err)
	}
}
