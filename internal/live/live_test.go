package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
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

// Gateway validation: unknown users and managers are 404s, not panics;
// malformed, oversized or over-long bodies are refused before they
// reach the driver.
func TestGatewayValidation(t *testing.T) {
	srv, _ := serveTest(t, experiment.Jini1)
	huge := `{"spec":{"service":"Big","attrs":{"Blob":"` + strings.Repeat("x", maxBody) + `"}}}`
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"query of unknown user", "/v1/query", `{"user":9999}`, http.StatusNotFound},
		{"update of unknown manager", "/v1/update", `{"manager":9999}`, http.StatusNotFound},
		{"subscribe of unknown user", "/v1/subscribe", `{"user":9999,"addr":"127.0.0.1:1"}`, http.StatusNotFound},
		{"register with empty service type", "/v1/register", `{"spec":{}}`, http.StatusBadRequest},
		{"body over the cap", "/v1/register", huge, http.StatusRequestEntityTooLarge},
		{"unknown field", "/v1/attach", `{"query":{"service":"Printer"},"priority":1}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/attach", `{"query":{"service":"Printer"}} garbage`, http.StatusBadRequest},
		{"subscribe without an IP", "/v1/subscribe", `{"user":9999,"addr":":1"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post("http://"+srv.Addr()+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
			t.Errorf("%s: no error message in the reply (%v)", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, er.Error)
		}
	}
	if got := srv.Gateway.Stats().Ops; got != 0 {
		t.Errorf("refused requests counted as %d ops", got)
	}
}

// A gateway that cannot produce the oracle report (its driver stopped)
// answers 503, and the Client surfaces that as an error rather than a
// zero report.
func TestClientOracleAfterStop(t *testing.T) {
	srv, cl := serveTest(t, experiment.Frodo2P)
	srv.Driver.Stop()
	if rep, err := cl.Oracle(); err == nil {
		t.Fatalf("Oracle() after the driver stopped = %+v, nil error", rep)
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

// raceBuild is set by race_test.go in -race builds.
var raceBuild bool

// replayBody is a request body that can be rewound, so one request
// value serves every run of an allocation measurement.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status code.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// The request path's allocation budget: update and query driven through
// the gateway's handlers (mux, body read, decode, Driver.Call, apply,
// encode) against a started driver, and Driver.Call itself. The driver
// runs at a dilation that freezes virtual time, so only the requests
// allocate; the client's service is discovered by advancing the kernel
// from inside the loop. The budgets are the values measured when the
// path became pooled ops (Go 1.24, linux/amd64); a change that adds an
// allocation per request fails here.
func TestGatewayRequestAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const (
		updateBudget = 7
		queryBudget  = 8
	)
	srv, err := Serve(Config{System: experiment.Frodo2P, Topology: experiment.Topology{Users: 2},
		Seed: 7, Dilation: 1e6}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl := NewClient(srv.Addr())
	mgr, err := cl.Register(ServiceSpec{Device: "Dev", Service: "Svc", Attrs: map[string]string{"Seq": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	user, err := cl.Attach(ServiceQuery{Service: "Svc"})
	if err != nil {
		t.Fatal(err)
	}
	d := srv.Driver
	if err := d.Call(func() { d.k.RunUntil(d.k.Now() + 120*sim.Second) }); err != nil {
		t.Fatal(err)
	}
	if recs, err := cl.Query(user); err != nil || len(recs) != 1 {
		t.Fatalf("query after discovery = %v, %v; want the one service", recs, err)
	}

	handler := srv.Gateway.srv.Handler
	measure := func(path, payload string) float64 {
		body := new(replayBody)
		req := httptest.NewRequest(http.MethodPost, path, nil)
		w := &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(500, func() {
			body.Reset([]byte(payload))
			req.Body, req.ContentLength = body, int64(len(payload))
			handler.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s %s: HTTP %d", path, payload, w.code)
			}
		})
	}
	for _, tc := range []struct {
		path, payload string
		budget        float64
	}{
		{"/v1/update", fmt.Sprintf(`{"manager":%d,"attrs":{"Seq":"2"}}`, mgr), updateBudget},
		{"/v1/query", fmt.Sprintf(`{"user":%d}`, user), queryBudget},
	} {
		if got := measure(tc.path, tc.payload); got > tc.budget {
			t.Errorf("%s: %.0f allocations per request, budget %.0f", tc.path, got, tc.budget)
		} else {
			t.Logf("%s: %.0f allocations per request (budget %.0f)", tc.path, got, tc.budget)
		}
	}
	noop := func() {}
	if got := testing.AllocsPerRun(1000, func() { d.Call(noop) }); got != 0 {
		t.Errorf("Driver.Call: %.0f allocations per call, want 0", got)
	}
}

// A client that declares a body and stalls mid-way holds an op handler
// only until the body deadline: the handler answers 400 and returns.
func TestGatewayStalledBody(t *testing.T) {
	prev := bodyTimeout
	bodyTimeout = 200 * time.Millisecond
	t.Cleanup(func() { bodyTimeout = prev })
	srv, _ := serveTest(t, experiment.UPnP)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/attach HTTP/1.1\r\nHost: gateway\r\n"+
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"+`{"query":{`); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no reply to the stalled request after %v: %v", time.Since(start), err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stalled body: HTTP %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the handler held the stalled request for %v", took)
	}
	if got := srv.Gateway.Stats().Ops; got != 0 {
		t.Errorf("the stalled request counted as %d ops", got)
	}
}
