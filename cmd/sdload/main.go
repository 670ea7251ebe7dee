// Command sdload is the load generator for sdlived: N concurrent
// clients, each owning one registered service and one discovering
// User, issue a register/query/update/subscribe mix over loopback and
// report sustained throughput and latency quantiles.
//
// Per client: register a unique service, attach a User querying it,
// subscribe for pushed notifications, wait for the fabric to complete
// discovery, then loop { update → wait for the pushed notification;
// query } until the duration elapses.
//
// Usage:
//
//	sdload -addr 127.0.0.1:8460 -clients 1000 -duration 30s
//	sdload -addr $(cat .addr) -clients 200 -duration 5s -oracle
//	sdload -req-timeout 5s -retries 4 -retry-base 50ms   # bounded, jittered retries
//
// Every request runs under -req-timeout and is retried up to -retries
// times with decorrelated-jitter backoff; failed attempts are classified
// (timeout vs connection-refused vs transport) in the final report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
)

// counters is a view over the obs registry: every series sdload tracks
// — latency histograms, op/failure totals, per-attempt error classes —
// lives in the registry, so -telemetry dumps the same numbers the
// report prints.
type counters struct {
	register, query, update, notify *obs.Histogram
	ops                             *obs.Counter
	errors                          *obs.Counter
	notifyMisses                    *obs.Counter
	discovered                      *obs.Counter
	// Per-attempt error classes: a request that times out twice and then
	// succeeds contributes 2 to timeouts and 0 to errors.
	timeouts, refused, transport *obs.Counter
	retries                      *obs.Counter
}

func newCounters(reg *obs.Registry) *counters {
	class := reg.CounterVec("sdload_attempt_errors_total", "class")
	return &counters{
		register:     reg.Histogram("sdload_register_seconds"),
		query:        reg.Histogram("sdload_query_seconds"),
		update:       reg.Histogram("sdload_update_seconds"),
		notify:       reg.Histogram("sdload_update_notify_seconds"),
		ops:          reg.Counter("sdload_ops_total"),
		errors:       reg.Counter("sdload_client_failures_total"),
		notifyMisses: reg.Counter("sdload_notify_misses_total"),
		discovered:   reg.Counter("sdload_discovered_total"),
		timeouts:     class.Get("timeout"),
		refused:      class.Get("refused"),
		transport:    class.Get("transport"),
		retries:      reg.Counter("sdload_retries_total"),
	}
}

// classify buckets one failed attempt: timeout (the per-request deadline
// fired), refused (the daemon is down or its accept queue is full), or
// transport (every other connection-level failure).
func (c *counters) classify(err error) {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		c.timeouts.Add(1)
	case errors.Is(err, syscall.ECONNREFUSED):
		c.refused.Add(1)
	default:
		c.transport.Add(1)
	}
}

// retrier reruns one request under the retry budget, classifying every
// failed attempt and sleeping a decorrelated-jitter backoff between
// attempts (U[base, 3·prev], capped at 32·base) so a herd of clients
// hitting the same stall desynchronizes instead of re-stampeding.
type retrier struct {
	c        *counters
	attempts int
	base     time.Duration
	rng      *rand.Rand
}

func (r *retrier) do(f func() error) error {
	prev := r.base
	for attempt := 1; ; attempt++ {
		err := f()
		if err == nil {
			return nil
		}
		r.c.classify(err)
		if attempt >= r.attempts {
			return err
		}
		r.c.retries.Add(1)
		hi, lo := 3*prev, r.base
		if max := 32 * r.base; hi > max {
			hi = max
		}
		sleep := lo + time.Duration(r.rng.Int63n(int64(hi-lo)+1))
		time.Sleep(sleep)
		prev = sleep
	}
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8460", "sdlived gateway address")
		clients    = flag.Int("clients", 50, "concurrent client goroutines")
		duration   = flag.Duration("duration", 10*time.Second, "per-client measurement duration, anchored after its service is discovered")
		discWait   = flag.Duration("discovery-wait", 60*time.Second, "max wall time for a client's service to be discovered")
		notifyWait = flag.Duration("notify-wait", 10*time.Second, "max wall time for one pushed notification")
		reqTimeout = flag.Duration("req-timeout", 30*time.Second, "per-request timeout (classified as a timeout error when it fires)")
		retries    = flag.Int("retries", 3, "attempts per request before giving up (1 = no retry)")
		retryBase  = flag.Duration("retry-base", 100*time.Millisecond, "initial retry backoff; jittered, capped at 32x")
		oracle     = flag.Bool("oracle", false, "fetch /v1/oracle at the end and fail unless it is attached and clean")
		telemetry  = flag.String("telemetry", "", "write the metrics registry as JSON to this file at exit (- for stdout)")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()
	if *clients <= 0 {
		fmt.Fprintln(os.Stderr, "sdload: -clients must be positive")
		os.Exit(2)
	}
	if *retries < 1 || *retryBase <= 0 || *reqTimeout <= 0 {
		fmt.Fprintln(os.Stderr, "sdload: -retries must be ≥ 1, -retry-base and -req-timeout positive")
		os.Exit(2)
	}

	hub, err := live.NewNotifyHub()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdload: notify hub: %v\n", err)
		os.Exit(1)
	}
	defer hub.Close()

	// One shared transport: the connection pool is the scarce resource,
	// not the Client structs.
	tr := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	hc := &http.Client{Timeout: *reqTimeout, Transport: tr}

	reg := obs.NewRegistry()
	c := newCounters(reg)
	var wg sync.WaitGroup
	start := time.Now()
	allDone := make(chan struct{})
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt := &retrier{c: c, attempts: *retries, base: *retryBase,
				rng: rand.New(rand.NewSource(int64(i)))}
			runClient(i, live.NewClientWith(*addr, hc), hub, c, rt, *duration, *discWait, *notifyWait)
		}(i)
	}
	go func() { wg.Wait(); close(allDone) }()
	if !*quiet {
		go func() {
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-allDone:
					return
				case <-tick.C:
					fmt.Fprintf(os.Stderr, "\r%d/%d discovered, %d ops, %d errors",
						c.discovered.Load(), *clients, c.ops.Load(), c.errors.Load())
				}
			}
		}()
	}
	<-allDone
	elapsed := time.Since(start)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}

	ops := c.ops.Load()
	fmt.Printf("sdload: %d clients, %v elapsed\n", *clients, elapsed.Round(time.Millisecond))
	fmt.Printf("  discovered:   %d/%d\n", c.discovered.Load(), *clients)
	fmt.Printf("  ops:          %d (%.0f ops/s)\n", ops, float64(ops)/elapsed.Seconds())
	fmt.Printf("  errors:       %d, notify misses: %d\n", c.errors.Load(), c.notifyMisses.Load())
	fmt.Printf("  err classes:  timeout %d, refused %d, transport %d (per attempt; %d retried)\n",
		c.timeouts.Load(), c.refused.Load(), c.transport.Load(), c.retries.Load())
	fmt.Printf("  register:     %s\n", c.register.Summary())
	fmt.Printf("  query:        %s\n", c.query.Summary())
	fmt.Printf("  update:       %s\n", c.update.Summary())
	fmt.Printf("  update→notify %s\n", c.notify.Summary())

	if *telemetry != "" {
		if err := reg.WriteJSONFile(*telemetry, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "sdload: telemetry: %v\n", err)
			os.Exit(1)
		}
	}

	fail := false
	if c.errors.Load() > 0 || c.discovered.Load() < uint64(*clients) {
		fail = true
	}
	if *oracle {
		rep, err := live.NewClientWith(*addr, hc).Oracle()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdload: oracle fetch: %v\n", err)
			fail = true
		} else if !rep.Attached {
			fmt.Fprintln(os.Stderr, "sdload: -oracle, but the daemon has no oracle attached")
			fail = true
		} else if !rep.Clean {
			fmt.Fprintf(os.Stderr, "sdload: ORACLE VIOLATIONS: %d\n", rep.Total)
			for _, v := range rep.Violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			fail = true
		} else {
			fmt.Printf("  oracle:       attached=%v clean=%v\n", rep.Attached, rep.Clean)
		}
	}
	if fail {
		os.Exit(1)
	}
}

// runClient is one external participant's life: register, attach,
// subscribe, discover, then the steady-state update/query loop for
// duration, anchored at this client's own discovery completion.
func runClient(i int, cl *live.Client, hub *live.NotifyHub, c *counters, rt *retrier, duration,
	discWait, notifyWait time.Duration) {

	service := fmt.Sprintf("LoadSvc-%d", i)
	fatal := func(stage string, err error) {
		c.errors.Add(1)
		fmt.Fprintf(os.Stderr, "sdload: client %d: %s: %v\n", i, stage, err)
	}

	t := time.Now()
	var mgr int
	err := rt.do(func() error {
		var e error
		mgr, e = cl.Register(live.ServiceSpec{Device: "LoadDev", Service: service,
			Attrs: map[string]string{"Client": fmt.Sprint(i)}})
		return e
	})
	if err != nil {
		fatal("register", err)
		return
	}
	c.register.Observe(time.Since(t))
	c.ops.Add(1)

	var user int
	err = rt.do(func() error {
		var e error
		user, e = cl.Attach(live.ServiceQuery{Service: service})
		return e
	})
	if err != nil {
		fatal("attach", err)
		return
	}
	c.ops.Add(1)
	notes := hub.Chan(user)
	if err := rt.do(func() error { return cl.Subscribe(user, hub.Addr()) }); err != nil {
		fatal("subscribe", err)
		return
	}
	c.ops.Add(1)

	// Discovery: poll the User's cache until the protocol has found the
	// service. The wait is fabric time (boot, search retries, announce
	// trains), scaled by the daemon's dilation.
	deadline := time.Now().Add(discWait)
	for {
		t = time.Now()
		var recs []live.Record
		err := rt.do(func() error {
			var e error
			recs, e = cl.Query(user)
			return e
		})
		if err != nil {
			fatal("query", err)
			return
		}
		c.query.Observe(time.Since(t))
		c.ops.Add(1)
		if len(recs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			fatal("discovery", fmt.Errorf("service %s not discovered within %v", service, discWait))
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.discovered.Add(1)

	version := uint64(1)
	stop := time.Now().Add(duration)
	for time.Now().Before(stop) {
		// Update, then wait for the pushed notification of the new
		// version — the end-to-end propagation latency through the
		// simulated fabric.
		t = time.Now()
		var v uint64
		err := rt.do(func() error {
			var e error
			v, e = cl.Update(mgr, map[string]string{"Seq": fmt.Sprint(version + 1)})
			return e
		})
		if err != nil {
			fatal("update", err)
			return
		}
		c.update.Observe(time.Since(t))
		c.ops.Add(1)
		version = v
		waitT := time.NewTimer(notifyWait)
	waitNote:
		for {
			select {
			case n := <-notes:
				if n.Version >= version {
					c.notify.Observe(time.Since(t))
					if !waitT.Stop() {
						<-waitT.C
					}
					break waitNote
				}
			case <-waitT.C:
				c.notifyMisses.Add(1)
				break waitNote
			}
		}

		t = time.Now()
		if err := rt.do(func() error { _, e := cl.Query(user); return e }); err != nil {
			fatal("query", err)
			return
		}
		c.query.Observe(time.Since(t))
		c.ops.Add(1)
	}
}
