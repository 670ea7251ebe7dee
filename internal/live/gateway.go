package live

import (
	"encoding/json"
	"expvar"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/upnp"
	"repro/internal/verify"
)

// LookupWindow is the virtual time the gateway's port node collects
// SearchReply frames before answering a lookup. It comfortably covers
// the fabric's delay spread (Table 3: ≤100µs one-way) plus the Jini TCP
// handshake, and costs LookupWindow×Dilation wall time per lookup.
const LookupWindow = 250 * sim.Millisecond

// Gateway serves the running scenario over loopback HTTP, pushing
// update notifications over UDP. All simulation state it owns (client
// users, registered managers, pending lookups) is touched only on the
// driver goroutine, via Call — handlers are just JSON shims around
// injected functions.
type Gateway struct {
	d   *Driver
	srv *http.Server
	ln  net.Listener
	udp *net.UDPConn

	// Driver-goroutine-owned maps.
	users    map[netsim.NodeID]*clientUser
	managers map[netsim.NodeID]*managerState
	port     netsim.NodeID
	pending  []*lookup
	nextID   int
	measured uint64 // version of the measured printer service

	oracle *verify.Oracle // nil when not attached

	notifyCh   chan notifyFrame
	senderDone chan struct{}

	// Registry-backed progress counters (the driver's obs registry, so
	// one /metrics scrape covers fabric and gateway). PR-6 fixed the torn
	// histogram snapshot; the same discipline applies here — Stats loads
	// each atomic once, and every series is also scrapeable individually,
	// where tearing cannot arise at all.
	ops           *obs.Counter
	notifySent    *obs.Counter
	notifyDropped *obs.Counter
	injectErrs    *obs.Counter
	userCount     *obs.Gauge
	managerCount  *obs.Gauge
}

type clientUser struct {
	id     netsim.NodeID
	each   func(func(discovery.ServiceRecord))
	notify *net.UDPAddr // nil until subscribed
}

type managerState struct {
	change  func(func(map[string]string))
	version uint64
}

type notifyFrame struct {
	addr *net.UDPAddr
	buf  []byte
}

// lookup is one in-flight fabric search at the port node.
type lookup struct {
	q    discovery.Query
	seen map[netsim.NodeID]uint64 // manager -> newest version collected
	recs []discovery.ServiceRecord
}

// portEndpoint receives the port node's traffic on the driver
// goroutine and feeds replies to the pending lookups. UPnP search
// responses are SSDP-faithful — they name the Manager but carry no
// description — so the port follows up with a Get, exactly as a real
// control point fetches the description after M-SEARCH.
type portEndpoint struct{ gw *Gateway }

func (p portEndpoint) Deliver(m *netsim.Message) {
	switch reply := m.Payload.(type) {
	case discovery.SearchReply:
		for _, rec := range reply.Recs {
			if rec.SD == nil {
				p.gw.fetchDescription(rec.Manager)
				continue
			}
			p.gw.offer(rec)
		}
	case discovery.GetReply:
		if reply.Rec.SD != nil {
			p.gw.offer(reply.Rec)
		}
	}
}

// offer hands one full service record to every pending lookup whose
// query it matches, keeping only the newest version per Manager.
func (gw *Gateway) offer(rec discovery.ServiceRecord) {
	for _, lk := range gw.pending {
		if !lk.q.Matches(rec.SD) {
			continue
		}
		if v, dup := lk.seen[rec.Manager]; dup {
			if v >= rec.SD.Version() {
				continue
			}
			for i := range lk.recs {
				if lk.recs[i].Manager == rec.Manager {
					lk.recs[i] = rec
				}
			}
		} else {
			lk.recs = append(lk.recs, rec)
		}
		lk.seen[rec.Manager] = rec.SD.Version()
	}
}

// fetchDescription follows an SSDP-style location-only search response
// with a Get to the Manager, on the fabric.
func (gw *Gateway) fetchDescription(manager netsim.NodeID) {
	err := gw.d.sc.Net.ExternalUDP(gw.port, manager, netsim.Outgoing{
		Kind:    discovery.Kind(discovery.Get{}),
		Counted: true,
		Payload: discovery.Get{Manager: manager},
	})
	if err != nil {
		gw.injectErrs.Add(1)
	}
}

// OpenGateway binds the gateway to a started driver and begins serving
// on addr (host:port; port 0 picks one). The oracle argument may be
// nil.
func OpenGateway(d *Driver, addr string, oracle *verify.Oracle) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: gateway listen: %w", err)
	}
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("live: gateway notify socket: %w", err)
	}
	reg := d.Telemetry()
	gw := &Gateway{
		d:          d,
		ln:         ln,
		udp:        udp,
		users:      map[netsim.NodeID]*clientUser{},
		managers:   map[netsim.NodeID]*managerState{},
		measured:   1,
		oracle:     oracle,
		notifyCh:   make(chan notifyFrame, 4096),
		senderDone: make(chan struct{}),

		ops:           reg.Counter("sd_gateway_ops_total"),
		notifySent:    reg.Counter("sd_gateway_notify_sent_total"),
		notifyDropped: reg.Counter("sd_gateway_notify_dropped_total"),
		injectErrs:    reg.Counter("sd_gateway_inject_errors_total"),
		userCount:     reg.Gauge("sd_gateway_users"),
		managerCount:  reg.Gauge("sd_gateway_managers"),
	}
	// The port node: the gateway's own presence on the fabric, through
	// which lookups travel as real frames.
	if err := d.Call(func() {
		node := d.sc.Net.AddNode("GatewayPort")
		node.SetEndpoint(portEndpoint{gw})
		gw.port = node.ID
	}); err != nil {
		ln.Close()
		udp.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/attach", gw.handleAttach)
	mux.HandleFunc("POST /v1/register", gw.handleRegister)
	mux.HandleFunc("POST /v1/update", gw.handleUpdate)
	mux.HandleFunc("POST /v1/query", gw.handleQuery)
	mux.HandleFunc("POST /v1/lookup", gw.handleLookup)
	mux.HandleFunc("POST /v1/subscribe", gw.handleSubscribe)
	mux.HandleFunc("GET /v1/stats", gw.handleStats)
	mux.HandleFunc("GET /v1/oracle", gw.handleOracle)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	// Observability rides on the gateway listener, so a daemon needs no
	// second port: expvar, Prometheus text exposition of the driver's
	// registry, the flight-recorder rings, and pprof (registered
	// explicitly — this mux is not http.DefaultServeMux, so the package's
	// init-time registrations never reach it).
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /metrics", gw.handleMetrics)
	mux.HandleFunc("GET /debug/flight", gw.handleFlight)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	gw.srv = &http.Server{Handler: mux}
	go gw.srv.Serve(ln)
	go gw.sendNotifications()
	return gw, nil
}

// Addr reports the gateway's HTTP address.
func (gw *Gateway) Addr() string { return gw.ln.Addr().String() }

// Close stops serving: HTTP first (so no new injections arrive), then
// the driver, then the notification sender.
func (gw *Gateway) Close() {
	gw.srv.Close()
	gw.d.Stop()
	close(gw.notifyCh)
	<-gw.senderDone
	gw.udp.Close()
}

// Stats snapshots gateway and driver progress.
func (gw *Gateway) Stats() StatsResponse {
	ds := gw.d.Stats()
	return StatsResponse{
		VirtualSec:    ds.VirtualTime.Sec(),
		EventsFired:   ds.EventsFired,
		Injections:    ds.Injections,
		Ops:           gw.ops.Load(),
		NotifySent:    gw.notifySent.Load(),
		NotifyDropped: gw.notifyDropped.Load(),
		InjectErrors:  gw.injectErrs.Load(),
		Users:         int(gw.userCount.Load()),
		Managers:      int(gw.managerCount.Load()),
	}
}

// clientCacheUpdated is the listener every spawned client User is
// constructed with: it first feeds the write through the driver's
// fan-out (so an attached oracle audits external clients' cache writes
// exactly like boot-time Users'), then the gateway's own notification
// tap. Runs on the driver goroutine.
func (gw *Gateway) clientCacheUpdated(t sim.Time, user, manager netsim.NodeID, version uint64) {
	gw.d.dispatchCacheUpdate(t, user, manager, version)
	gw.CacheUpdated(t, user, manager, version)
}

// CacheUpdated implements discovery.ConsistencyListener: the gateway's
// notification tap for subscribed client Users.
func (gw *Gateway) CacheUpdated(t sim.Time, user, manager netsim.NodeID, version uint64) {
	cu := gw.users[user]
	if cu == nil || cu.notify == nil {
		return
	}
	buf, err := json.Marshal(Notification{
		User: int(user), Manager: int(manager), Version: version, Virtual: t.Sec(),
	})
	if err != nil {
		return
	}
	select {
	case gw.notifyCh <- notifyFrame{addr: cu.notify, buf: buf}:
	default:
		gw.notifyDropped.Add(1)
	}
}

func (gw *Gateway) sendNotifications() {
	defer close(gw.senderDone)
	for f := range gw.notifyCh {
		if _, err := gw.udp.WriteToUDP(f.buf, f.addr); err == nil {
			gw.notifySent.Add(1)
		} else {
			gw.notifyDropped.Add(1)
		}
	}
}

// --- HTTP handlers -------------------------------------------------

func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var req T
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return req, false
	}
	return req, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already on the wire, so the client sees a
		// half-written body; log it instead of failing silently.
		log.Printf("live: gateway response encode failed (status %d): %v", code, err)
	}
}

func (gw *Gateway) fail(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// numbered returns prefix followed by n in decimal, in one allocation —
// the label of a spawned node, which only logs read.
func numbered(prefix string, n int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10))
}

func (gw *Gateway) handleAttach(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[attachRequest](w, r)
	if !ok {
		return
	}
	var id netsim.NodeID
	err := gw.d.Call(func() {
		gw.nextID++
		uid, each := gw.d.sc.SpawnUser(numbered("live-client-", gw.nextID), req.Query.toQuery(), discovery.ListenerFunc(gw.clientCacheUpdated))
		gw.users[uid] = &clientUser{id: uid, each: each}
		id = uid
	})
	if err != nil {
		gw.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	gw.ops.Add(1)
	gw.userCount.Add(1)
	writeJSON(w, http.StatusOK, attachResponse{User: int(id)})
}

func (gw *Gateway) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[registerRequest](w, r)
	if !ok {
		return
	}
	if req.Spec.Service == "" {
		gw.fail(w, http.StatusBadRequest, "register: empty service type")
		return
	}
	var id netsim.NodeID
	err := gw.d.Call(func() {
		gw.nextID++
		mid, change := gw.d.sc.SpawnManager(numbered("live-manager-", gw.nextID), req.Spec.toSD())
		gw.managers[mid] = &managerState{change: change, version: 1}
		id = mid
	})
	if err != nil {
		gw.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	gw.ops.Add(1)
	gw.managerCount.Add(1)
	writeJSON(w, http.StatusOK, registerResponse{Manager: int(id), Version: 1})
}

func (gw *Gateway) handleUpdate(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[updateRequest](w, r)
	if !ok {
		return
	}
	if netsim.NodeID(req.Manager) == gw.d.sc.ManagerID && len(req.Attrs) > 0 {
		// The measured printer's change is the paper's canonical
		// mutation (applied via FireChange below); client attrs cannot
		// be merged into it, so reject them instead of silently
		// dropping them.
		gw.fail(w, http.StatusBadRequest,
			"update: the measured printer's change is fixed; update it without attrs")
		return
	}
	var version uint64
	var unknown bool
	err := gw.d.Call(func() {
		id := netsim.NodeID(req.Manager)
		mutate := func(attrs map[string]string) {
			for k, v := range req.Attrs {
				attrs[k] = v
			}
			if len(req.Attrs) == 0 {
				attrs["Rev"] = strconv.FormatUint(version, 10)
			}
		}
		if id == gw.d.sc.ManagerID {
			// The measured printer: go through the change tap so an
			// attached oracle records the publication.
			gw.measured++
			version = gw.measured
			gw.d.sc.FireChange()
			return
		}
		ms := gw.managers[id]
		if ms == nil {
			unknown = true
			return
		}
		ms.version++
		version = ms.version
		ms.change(mutate)
	})
	if err != nil {
		gw.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if unknown {
		gw.fail(w, http.StatusNotFound, "update: unknown manager %d", req.Manager)
		return
	}
	gw.ops.Add(1)
	writeJSON(w, http.StatusOK, updateResponse{Version: version})
}

func (gw *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[queryRequest](w, r)
	if !ok {
		return
	}
	var recs []Record
	var unknown bool
	err := gw.d.Call(func() {
		cu := gw.users[netsim.NodeID(req.User)]
		if cu == nil {
			unknown = true
			return
		}
		cu.each(func(rec discovery.ServiceRecord) {
			recs = append(recs, toRecord(rec))
		})
	})
	if err != nil {
		gw.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if unknown {
		gw.fail(w, http.StatusNotFound, "query: unknown user %d", req.User)
		return
	}
	gw.ops.Add(1)
	writeJSON(w, http.StatusOK, queryResponse{Records: recs})
}

func (gw *Gateway) handleLookup(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[lookupRequest](w, r)
	if !ok {
		return
	}
	q := req.Query.toQuery()
	done := make(chan struct{})
	var recs []Record
	err := gw.d.Call(func() {
		lk := &lookup{q: q, seen: map[netsim.NodeID]uint64{}}
		gw.pending = append(gw.pending, lk)
		gw.sendLookup(q)
		gw.d.k.After(LookupWindow, func() {
			for i, p := range gw.pending {
				if p == lk {
					gw.pending = append(gw.pending[:i], gw.pending[i+1:]...)
					break
				}
			}
			for _, rec := range lk.recs {
				recs = append(recs, toRecord(rec))
			}
			close(done)
		})
	})
	if err != nil {
		gw.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	select {
	case <-done:
	case <-gw.d.Done():
		gw.fail(w, http.StatusServiceUnavailable, "%v", ErrStopped)
		return
	}
	gw.ops.Add(1)
	writeJSON(w, http.StatusOK, lookupResponse{Records: recs})
}

// sendLookup puts the search on the fabric: unicast to every Registry
// slot where the system has Registries (Jini's lookup services, FRODO's
// Central — non-Central 300D slots simply ignore it), multicast into
// the discovery group where it does not (UPnP's M-SEARCH, answered by
// Managers directly). Injection failures (a retired Registry slot)
// cannot panic the loop; they are counted so an empty lookup under
// failures is distinguishable from "service not found".
func (gw *Gateway) sendLookup(q discovery.Query) {
	out := netsim.Outgoing{
		Kind:    discovery.Kind(discovery.Search{}),
		Counted: true,
		Topic:   upnp.TopicSearch, // for the M-SEARCH arm; unicast ignores it
		Payload: discovery.Search{Q: q},
	}
	regs := gw.d.sc.RegistryIDs()
	if len(regs) == 0 {
		if gw.d.sc.Net.ExternalMulticast(gw.port, upnp.DiscoveryGroup, out) != nil {
			gw.injectErrs.Add(1)
		}
		return
	}
	for _, reg := range regs {
		if gw.d.sc.Net.ExternalUDP(gw.port, reg, out) != nil {
			gw.injectErrs.Add(1)
		}
	}
}

func (gw *Gateway) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[subscribeRequest](w, r)
	if !ok {
		return
	}
	addr, err := net.ResolveUDPAddr("udp", req.Addr)
	if err != nil {
		gw.fail(w, http.StatusBadRequest, "subscribe: bad addr %q: %v", req.Addr, err)
		return
	}
	var unknown bool
	err = gw.d.Call(func() {
		cu := gw.users[netsim.NodeID(req.User)]
		if cu == nil {
			unknown = true
			return
		}
		cu.notify = addr
	})
	if err != nil {
		gw.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if unknown {
		gw.fail(w, http.StatusNotFound, "subscribe: unknown user %d", req.User)
		return
	}
	gw.ops.Add(1)
	writeJSON(w, http.StatusOK, struct{}{})
}

func (gw *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, gw.Stats())
}

func (gw *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gw.d.Telemetry().WritePrometheus(w)
}

func (gw *Gateway) handleFlight(w http.ResponseWriter, r *http.Request) {
	snaps := gw.d.FlightDump()
	if snaps == nil {
		gw.fail(w, http.StatusNotFound, "flight recorders disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteFlightJSON(w, snaps)
}

func (gw *Gateway) handleOracle(w http.ResponseWriter, r *http.Request) {
	if gw.oracle == nil {
		writeJSON(w, http.StatusOK, OracleResponse{Attached: false, Clean: true})
		return
	}
	var rep verify.OracleReport
	if err := gw.d.Call(func() { rep = gw.oracle.Report() }); err != nil {
		gw.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	resp := OracleResponse{Attached: true, Total: rep.Total, Clean: rep.Clean()}
	for _, v := range rep.Violations {
		resp.Violations = append(resp.Violations, v.String())
	}
	writeJSON(w, http.StatusOK, resp)
}
