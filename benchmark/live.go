package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/verify"
)

const (
	liveDilation  = 0.001 // wall seconds per virtual second
	notifyTimeout = 5 * time.Second
	discoverLimit = 60 * time.Second
)

// participant is one external service with one User discovering it.
type participant struct {
	service string
	mgr     int
	user    int
	version uint64
	notes   <-chan live.Notification
}

// conn is one load-generator connection: a keep-alive HTTP client and
// the participants it cycles over. Each conn is driven by one goroutine
// and owns its tallies, merged after the goroutines have joined.
type conn struct {
	track int
	cl    *live.Client
	hc    *http.Client
	parts []*participant
	next  int

	attempted, failed                   int
	misses                              int
	problems                            []string
	registerMS                          []float64
	discoverMS                          []float64
	updateUS, notifyUS, pushUS, queryUS []float64
}

func (c *conn) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// rig is a serving daemon with its registered, discovered participants.
type rig struct {
	srv     *live.Server
	hub     *live.NotifyHub
	conns   []*conn
	started time.Time
}

func (r *rig) close() {
	r.srv.Close()
	r.hub.Close()
	for _, c := range r.conns {
		c.hc.CloseIdleConnections()
	}
}

// each runs fn once per connection, one goroutine each, and waits.
func (r *rig) each(fn func(c *conn)) {
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// liveSetup boots the daemon (FRODO 2-party, the paper's base topology,
// oracle attached) and brings P participants to the discovered state:
// Register + Attach + Subscribe each, then Query polls until every
// User's cache holds its service.
func liveSetup(cfg runConfig, tr *tracer, parent int, rep int, reg *obs.Registry) (*rig, error) {
	ocfg := verify.DefaultOracleConfig(experiment.Frodo2P)
	id := tr.begin("live.Serve", parent, 0, 0)
	srv, err := live.Serve(live.Config{System: experiment.Frodo2P, Seed: deriveSeed(cfg.seed, streamLive, rep),
		Dilation: liveDilation, Oracle: &ocfg, Telemetry: reg}, "127.0.0.1:0")
	tr.end(id)
	if err != nil {
		return nil, err
	}
	started := time.Now()
	hub, err := live.NewNotifyHub()
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &rig{srv: srv, hub: hub, started: started}
	for w := 0; w < generators(); w++ {
		// One keep-alive connection per generator, never more.
		hc := &http.Client{Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		r.conns = append(r.conns, &conn{track: w + 1, hc: hc, cl: live.NewClientWith(srv.Addr(), hc)})
	}
	// Participant order comes from the seed.
	order := rand.New(rand.NewSource(deriveSeed(cfg.seed, streamLive, 1000+rep))).Perm(cfg.sz.liveP)
	for i, p := range order {
		c := r.conns[i%len(r.conns)]
		c.parts = append(c.parts, &participant{service: "BenchSvc-" + strconv.Itoa(p)})
	}
	r.each(func(c *conn) { c.register(tr, parent, hub) })
	r.each(func(c *conn) { c.discover(tr, parent) })
	return r, nil
}

// call wraps one Client call in a span and the failure accounting.
func (c *conn) call(tr *tracer, parent int, op int64, name string, fn func() error) (time.Duration, bool) {
	id := tr.begin("live.Client."+name, parent, op, c.track)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	tr.end(id)
	c.attempted++
	if err != nil {
		c.fail("%s: %v", name, err)
		return d, false
	}
	return d, true
}

func (c *conn) register(tr *tracer, parent int, hub *live.NotifyHub) {
	for i, p := range c.parts {
		op := int64(i)
		d, ok := c.call(tr, parent, op, "Register", func() (err error) {
			p.mgr, err = c.cl.Register(live.ServiceSpec{Device: "BenchDev", Service: p.service})
			return err
		})
		if !ok {
			continue
		}
		c.registerMS = append(c.registerMS, d.Seconds()*1e3)
		p.version = 1
		if _, ok := c.call(tr, parent, op, "Attach", func() (err error) {
			p.user, err = c.cl.Attach(live.ServiceQuery{Service: p.service})
			return err
		}); !ok {
			continue
		}
		p.notes = hub.Chan(p.user)
		c.call(tr, parent, op, "Subscribe", func() error { return c.cl.Subscribe(p.user, hub.Addr()) })
	}
}

// discover polls until every participant's User has found its service.
func (c *conn) discover(tr *tracer, parent int) {
	start := time.Now()
	pending := append([]*participant(nil), c.parts...)
	for len(pending) > 0 {
		still := pending[:0]
		for _, p := range pending {
			if p.notes == nil {
				continue // set-up already failed and was counted
			}
			var recs []live.Record
			if _, ok := c.call(tr, parent, 0, "Query", func() (err error) {
				recs, err = c.cl.Query(p.user)
				return err
			}); !ok {
				continue
			}
			if len(recs) > 0 {
				c.discoverMS = append(c.discoverMS, time.Since(start).Seconds()*1e3)
			} else {
				still = append(still, p)
			}
		}
		pending = still
		if len(pending) == 0 {
			break
		}
		if time.Since(start) > discoverLimit {
			for _, p := range pending {
				c.attempted++
				c.fail("%s undiscovered after %v", p.service, discoverLimit)
				p.notes = nil
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Drop the discovery-time notifications so the loop only ever waits
	// for its own updates.
	for _, p := range c.parts {
		for p.notes != nil && len(p.notes) > 0 {
			<-p.notes
		}
	}
}

// cycle is one closed-loop op: Update, wait for the pushed notification
// of that version, Query and check the cache holds it.
func (c *conn) cycle(tr *tracer, parent int) {
	p := c.parts[c.next%len(c.parts)]
	c.next++
	if p.notes == nil {
		return
	}
	op := int64(c.track)<<32 | int64(c.next)
	id := tr.begin("benchmark.cycle", parent, op, c.track)
	defer tr.end(id)

	sent := time.Now()
	var v uint64
	d, ok := c.call(tr, id, op, "Update", func() (err error) {
		v, err = c.cl.Update(p.mgr, map[string]string{"Seq": strconv.FormatUint(p.version+1, 10)})
		return err
	})
	if !ok {
		return
	}
	replied := time.Now()
	c.updateUS = append(c.updateUS, micros(d))
	if v != p.version+1 {
		c.fail("%s: update returned version %d, want %d", p.service, v, p.version+1)
	}
	p.version = v

	wid := tr.begin("live.notify_wait", id, op, c.track)
	c.attempted++
	timeout := time.NewTimer(notifyTimeout)
	for got := false; !got; {
		select {
		case n := <-p.notes:
			if n.Version >= v {
				now := time.Now()
				c.notifyUS = append(c.notifyUS, micros(now.Sub(sent)))
				c.pushUS = append(c.pushUS, micros(now.Sub(replied)))
				got = true
			}
		case <-timeout.C:
			c.misses++
			c.fail("%s: no notification of version %d within %v", p.service, v, notifyTimeout)
			got = true
		}
	}
	timeout.Stop()
	tr.end(wid)

	var recs []live.Record
	d, ok = c.call(tr, id, op, "Query", func() (err error) {
		recs, err = c.cl.Query(p.user)
		return err
	})
	if !ok {
		return
	}
	c.queryUS = append(c.queryUS, micros(d))
	if len(recs) != 1 || recs[0].Service != p.service || recs[0].Version != v {
		c.fail("%s: query after notification of version %d returned %+v", p.service, v, recs)
	}
}

// loop runs the closed loop on every connection for d.
func (r *rig) loop(tr *tracer, parent int, d time.Duration) {
	r.each(func(c *conn) {
		for stop := time.Now().Add(d); time.Now().Before(stop); {
			c.cycle(tr, parent)
		}
	})
}

// requests counts the HTTP requests the loop has completed so far.
func (r *rig) requests() (n int) {
	for _, c := range r.conns {
		n += len(c.updateUS) + len(c.queryUS)
	}
	return n
}

// merged concatenates one tally across connections.
func (r *rig) merged(pick func(*conn) []float64) []float64 {
	var out []float64
	for _, c := range r.conns {
		out = append(out, pick(c)...)
	}
	return out
}

// settle folds the connections' tallies and the oracle's verdict into
// the result.
func (r *rig) settle(res *result) {
	for _, c := range r.conns {
		res.attempted += c.attempted
		res.failed += c.failed
		for _, p := range c.problems {
			res.problemf("live_serve: %s", p)
		}
	}
	rep, ok := r.srv.OracleReport()
	if !ok {
		res.problemf("live_serve: no oracle attached")
	} else if !rep.Clean() {
		res.problemf("live_serve: oracle not clean: %s", rep)
	}
}

func runLiveServe(cfg runConfig, tr *tracer) *result {
	if cfg.trace {
		return traceLiveServe(cfg, tr)
	}
	res := newResult(endToEnd)

	// Set-up several times over; the last daemon is the one measured.
	var setups []float64
	var r *rig
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		if r != nil {
			r.settle(res)
			r.close()
		}
		t := time.Now()
		var err error
		if r, err = liveSetup(cfg, nil, -1, rep, nil); err != nil {
			res.problemf("live_serve: set-up: %v", err)
			return res
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer r.close()
	res.setN("setup_s", stats.Median(setups), len(setups))

	mem := markMem()
	t := time.Now()
	r.loop(nil, -1, time.Duration(cfg.seconds*float64(time.Second)))
	wall := time.Since(t)
	mallocs, bytes := mem.since()
	r.settle(res)

	queries := r.merged(func(c *conn) []float64 { return c.queryUS })
	notify := r.merged(func(c *conn) []float64 { return c.notifyUS })
	ops := float64(r.requests())
	if ops == 0 {
		res.problemf("live_serve: no request completed")
		return res
	}
	res.setN("ops_per_s", ops/wall.Seconds(), int(ops))
	res.setN("op_p50_us", stats.Quantile(notify, 0.5), len(notify))
	res.set("allocs_per_op", mallocs/ops)
	res.set("alloc_kb_per_op", bytes/1024/ops)
	res.notef("op = one HTTP request (update or query); op_p50_us = Update sent -> notification of that version received; %d connections, closed loop", len(r.conns))
	res.notef("update->notify p99 %.0fus (n=%d), query p50 %.0fus p99 %.0fus (n=%d)",
		stats.Quantile(notify, 0.99), len(notify), stats.Quantile(queries, 0.5), stats.Quantile(queries, 0.99), len(queries))
	return res
}

// sampleUS times fn n times and returns the samples in microseconds.
func sampleUS(n int, fn func()) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		fn()
		out = append(out, micros(time.Since(t)))
	}
	return out
}

func traceLiveServe(cfg runConfig, tr *tracer) *result {
	res := newResult(perLayer)
	root := tr.begin("benchmark.live_serve", -1, 0, 0)
	defer tr.end(root)

	id := tr.begin("benchmark.setup", root, 0, 0)
	r, err := liveSetup(cfg, tr, id, 0, obs.NewRegistry())
	tr.end(id)
	if err != nil {
		res.problemf("live_serve: set-up: %v", err)
		return res
	}
	defer r.close()
	per := (100 + len(r.conns) - 1) / len(r.conns)
	res.set("live.register_ms_p50_first100", stats.Median(r.merged(func(c *conn) []float64 { return c.registerMS[:min(per, len(c.registerMS))] })))
	res.set("live.register_ms_p50_last100", stats.Median(r.merged(func(c *conn) []float64 { return c.registerMS[max(0, len(c.registerMS)-per):] })))
	res.set("live.discovery_wait_ms_p50", stats.Median(r.merged(func(c *conn) []float64 { return c.discoverMS })))

	// The virtual clock as wall time, minus the wall clock. The instant
	// the driver anchored the two is not visible from outside, so the
	// smallest gap seen while idle (the simulator fully caught up)
	// calibrates it.
	clockGap := func() float64 {
		return time.Since(r.started).Seconds() - r.srv.Driver.Stats().VirtualTime.Sec()*liveDilation
	}
	caughtUp := clockGap()
	for i := 0; i < 200; i++ {
		time.Sleep(100 * time.Microsecond)
		caughtUp = min(caughtUp, clockGap())
	}

	// Floors, on an otherwise idle daemon: HTTP+JSON without the driver
	// (GET /v1/stats), and the inject queue without HTTP (Driver.Call).
	noop := func() {}
	n := 20 * cfg.sz.micro
	id = tr.begin("benchmark.floors", root, 0, 0)
	res.setN("live.stats_us_p50", stats.Quantile(sampleUS(n, func() {
		sid := tr.begin("live.Client.Stats", id, 0, 0)
		if _, err := r.conns[0].cl.Stats(); err != nil {
			res.problemf("live_serve: stats: %v", err)
		}
		tr.end(sid)
	}), 0.5), n)
	res.setN("live.call_us_p50_idle", stats.Quantile(sampleUS(n, func() {
		cid := tr.begin("live.Driver.Call", id, 0, 0)
		if err := r.srv.Driver.Call(noop); err != nil {
			res.problemf("live_serve: call: %v", err)
		}
		tr.end(cid)
	}), 0.5), n)
	tr.end(id)

	// The closed loop over three thirds of the time: untraced and traced
	// in alternating slices (the daemon is still digesting set-up when
	// the first starts, so one after the other would flatter the second),
	// then with one generator replaced by a Driver.Call sampler (the
	// inject-queue wait under load).
	third := time.Duration(cfg.seconds / 3 * float64(time.Second))
	var ops, secs [2]float64 // [untraced, traced]
	var tracedEvents float64
	for slice := 0; slice < 8; slice++ {
		traced := slice % 2
		name, sliceTr := "benchmark.loop_untraced", (*tracer)(nil)
		if traced == 1 {
			name, sliceTr = "benchmark.loop_traced", tr
		}
		id = tr.begin(name, root, 0, 0)
		before, fired := r.requests(), r.srv.Driver.Stats().EventsFired
		t := time.Now()
		r.loop(sliceTr, id, third/4)
		secs[traced] += time.Since(t).Seconds()
		ops[traced] += float64(r.requests() - before)
		if traced == 1 {
			tracedEvents += float64(r.srv.Driver.Stats().EventsFired - fired)
		}
		tr.end(id)
	}
	if ops[0] > 0 && ops[1] > 0 {
		res.set("obs.trace_wall_ratio", (ops[0]/secs[0])/(ops[1]/secs[1]))
		res.set("sim.events_per_op", tracedEvents/ops[1])
	}

	id = tr.begin("benchmark.loop_sampled", root, 0, 0)
	var loaded, lagMS []float64
	var wg sync.WaitGroup
	stop := time.Now().Add(third)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := r.conns[0]
		for time.Now().Before(stop) {
			c.cycle(tr, id)
		}
	}()
	for time.Now().Before(stop) {
		cid := tr.begin("live.Driver.Call", id, 0, 0)
		loaded = append(loaded, sampleUS(1, func() {
			if err := r.srv.Driver.Call(noop); err != nil {
				res.problemf("live_serve: call: %v", err)
			}
		})...)
		tr.end(cid)
		// Is the simulator keeping up under load?
		lagMS = append(lagMS, (clockGap()-caughtUp)*1e3)
		time.Sleep(200 * time.Microsecond)
	}
	wg.Wait()
	tr.end(id)
	res.setN("live.call_us_p50_loaded", stats.Quantile(loaded, 0.5), len(loaded))
	res.setN("live.call_us_p99_loaded", stats.Quantile(loaded, 0.99), len(loaded))
	res.setN("live.virtual_lag_ms", stats.Median(lagMS), len(lagMS))

	r.settle(res)
	updates := r.merged(func(c *conn) []float64 { return c.updateUS })
	notify := r.merged(func(c *conn) []float64 { return c.notifyUS })
	queries := r.merged(func(c *conn) []float64 { return c.queryUS })
	push := r.merged(func(c *conn) []float64 { return c.pushUS })
	res.setN("live.update_us_p50", stats.Quantile(updates, 0.5), len(updates))
	res.setN("live.update_us_p99", stats.Quantile(updates, 0.99), len(updates))
	res.setN("live.update_notify_us_p99", stats.Quantile(notify, 0.99), len(notify))
	res.setN("live.query_us_p50", stats.Quantile(queries, 0.5), len(queries))
	res.setN("live.query_us_p99", stats.Quantile(queries, 0.99), len(queries))
	res.setN("live.notify_push_us_p50", stats.Quantile(push, 0.5), len(push))
	st := r.srv.Gateway.Stats()
	res.set("live.notify_dropped", float64(st.NotifyDropped))
	res.set("live.inject_errors", float64(st.InjectErrors))
	var misses int
	for _, c := range r.conns {
		misses += c.misses
	}
	res.set("live.notify_misses", float64(misses))
	if rep, ok := r.srv.OracleReport(); ok {
		res.set("verify.violations", float64(rep.Total))
		res.set("verify.probes_run", float64(rep.ProbesRun))
	}

	microProbes(cfg, tr, root, res)
	res.set("experiment.cpu_s", cpuSeconds())
	return res
}
