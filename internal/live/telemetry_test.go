package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

func scrape(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// waitVirtual polls stats until the fabric has advanced sec virtual
// seconds, so scrapes observe a fabric that has actually run.
func waitVirtual(t *testing.T, cl *Client, sec float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st.VirtualSec >= sec {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fabric never reached %.0f virtual seconds", sec)
}

// The gateway's /metrics face serves Prometheus text with the fabric's
// frame series, the gateway's own counters, and the kernel gauges, all
// from the driver's registry.
func TestGatewayMetricsEndpoint(t *testing.T) {
	srv, cl := serveTest(t, experiment.Frodo2P)
	if _, err := cl.Attach(ServiceQuery{Service: "Printer"}); err != nil {
		t.Fatal(err)
	}
	code, body := scrape(t, srv.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE sd_frames_sent_total counter",
		`sd_frames_sent_total{shard="0"}`,
		"sd_gateway_ops_total 1",
		"sd_gateway_users 1",
		"sd_live_virtual_seconds",
		`sd_kernel_pending{shard="0"}`,
		`sd_oracle_near_misses_total{invariant="version-bound",shard="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
}

// The flight endpoint dumps the ring as JSON; pprof serves its index
// from the gateway mux.
func TestGatewayFlightAndPprof(t *testing.T) {
	srv, cl := serveTest(t, experiment.Frodo2P)
	if _, err := cl.Attach(ServiceQuery{Service: "Printer"}); err != nil {
		t.Fatal(err)
	}
	waitVirtual(t, cl, 60)
	code, body := scrape(t, srv.Addr(), "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight status %d: %s", code, body)
	}
	var snaps []obs.FlightSnapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("/debug/flight not JSON: %v", err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	if snaps[0].Total == 0 {
		t.Error("flight ring recorded nothing on a live fabric")
	}
	if code, _ := scrape(t, srv.Addr(), "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

// The PR-6 torn-snapshot rule, applied to the gateway counters this PR
// moved off individual expvar atomics: a scrape racing with handler
// traffic must see each counter monotone and never beyond the true
// total — the registry snapshot takes one atomic load per series, so
// no scrape can invent operations that never happened.
func TestGatewayCounterSnapshotNotTorn(t *testing.T) {
	srv, _ := serveTest(t, experiment.Frodo2P)
	gw := srv.Gateway
	const workers, per = 4, 5000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				gw.ops.Inc()
				gw.notifySent.Inc()
			}
		}()
	}
	go func() { wg.Wait(); close(stop) }()
	reg := srv.Driver.Telemetry()
	var lastOps uint64
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		snap := reg.Snapshot()
		ops := snap["sd_gateway_ops_total"].(uint64)
		if ops < lastOps {
			t.Fatalf("counter went backwards across scrapes: %d then %d", lastOps, ops)
		}
		if ops > workers*per {
			t.Fatalf("scrape saw %d ops, more than the %d ever performed", ops, workers*per)
		}
		lastOps = ops
	}
	if got := gw.ops.Load(); got != workers*per {
		t.Fatalf("final ops = %d, want %d", got, workers*per)
	}
	// Stats mirrors the registry once quiesced.
	if s := gw.Stats(); s.Ops != workers*per || s.NotifySent != workers*per {
		t.Fatalf("Stats() = %+v after %d ops", s, workers*per)
	}
}
