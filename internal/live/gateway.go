package live

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/upnp"
	"repro/internal/wire"
)

// LookupWindow is the virtual time the gateway's port node collects
// SearchReply frames before answering a lookup. It comfortably covers
// the fabric's delay spread (Table 3: ≤100µs one-way) plus the Jini TCP
// handshake, and costs LookupWindow×Dilation wall time per lookup.
const LookupWindow = 250 * sim.Millisecond

// Input bounds of the gateway's HTTP face. A request body over maxBody
// is refused with 413; the timeouts cut off clients that stall
// mid-header or hold an idle keep-alive connection. (A whole-request
// ReadTimeout would also cancel long pprof captures on this listener.)
const (
	maxBody           = 64 << 10
	maxHeaderBytes    = 16 << 10
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// bodyTimeout bounds an op handler's body read: a client that stalls
// mid-body gets 400 instead of holding the handler. A variable only so
// tests can lower it; a gateway reads it when it opens.
var bodyTimeout = 10 * time.Second

// Gateway serves the running scenario over loopback HTTP, pushing
// update notifications over UDP. Every request becomes a pooled op that
// apply runs on the driver goroutine via Call, so all simulation state
// the gateway owns (client users, registered managers, pending lookups)
// is touched only there.
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

	opPool sync.Pool // *op, made by newOp

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
	each   func(func(discovery.ServiceRecord))
	notify netip.AddrPort // invalid until subscribed
}

type managerState struct {
	change  func(func(map[string]string))
	version uint64
}

// notifyFrame is one pushed datagram, formatted in place: the sender
// queue holds frames by value, so a cache write allocates nothing.
type notifyFrame struct {
	addr netip.AddrPort
	n    int
	buf  [128]byte // the longest Notification is 121 bytes
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
	switch m.Packet.Kind {
	case wire.SearchReply:
		for _, rec := range m.Packet.Records() {
			if rec.SD == nil {
				p.gw.fetchDescription(rec.Manager)
				continue
			}
			p.gw.offer(rec)
		}
	case wire.GetReply:
		if m.Packet.SD != nil {
			p.gw.offer(m.Packet.Record())
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
	err := gw.d.sc.Net.ExternalUDP(gw.port, manager, netsim.Outgoing{Counted: true,
		Packet: wire.Packet{Kind: wire.Get, Manager: manager}})
	if err != nil {
		gw.injectErrs.Add(1)
	}
}

// OpenGateway binds the gateway to a started driver and begins serving
// on addr (host:port; port 0 picks one).
func OpenGateway(d *Driver, addr string) (*Gateway, error) {
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
		notifyCh:   make(chan notifyFrame, 4096),
		senderDone: make(chan struct{}),

		ops:           reg.Counter("sd_gateway_ops_total"),
		notifySent:    reg.Counter("sd_gateway_notify_sent_total"),
		notifyDropped: reg.Counter("sd_gateway_notify_dropped_total"),
		injectErrs:    reg.Counter("sd_gateway_inject_errors_total"),
		userCount:     reg.Gauge("sd_gateway_users"),
		managerCount:  reg.Gauge("sd_gateway_managers"),
	}
	gw.opPool.New = gw.newOp
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
	mux.HandleFunc("POST /v1/attach", gw.handle(opAttach))
	mux.HandleFunc("POST /v1/register", gw.handle(opRegister))
	mux.HandleFunc("POST /v1/update", gw.handle(opUpdate))
	mux.HandleFunc("POST /v1/query", gw.handle(opQuery))
	mux.HandleFunc("POST /v1/lookup", gw.handle(opLookup))
	mux.HandleFunc("POST /v1/subscribe", gw.handle(opSubscribe))
	mux.HandleFunc("GET /v1/oracle", gw.handle(opOracle))
	mux.HandleFunc("GET /v1/stats", gw.handleStats)
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
	gw.srv = &http.Server{Handler: mux, MaxHeaderBytes: maxHeaderBytes,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
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

// CacheUpdated implements discovery.ConsistencyListener: the gateway's
// notification tap for subscribed client Users. Every spawned client
// User is built with it; the scenario's taps (an attached oracle) see
// the write first. Runs on the driver goroutine.
func (gw *Gateway) CacheUpdated(t sim.Time, user, manager netsim.NodeID, version uint64) {
	cu := gw.users[user]
	if cu == nil || !cu.notify.IsValid() {
		return
	}
	f := notifyFrame{addr: cu.notify}
	f.n = len(appendNotification(f.buf[:0], Notification{
		User: int(user), Manager: int(manager), Version: version, Virtual: t.Sec(),
	}))
	select {
	case gw.notifyCh <- f:
	default:
		gw.notifyDropped.Add(1)
	}
}

func (gw *Gateway) sendNotifications() {
	defer close(gw.senderDone)
	for f := range gw.notifyCh {
		if _, err := gw.udp.WriteToUDPAddrPort(f.buf[:f.n], f.addr); err == nil {
			gw.notifySent.Add(1)
		} else {
			gw.notifyDropped.Add(1)
		}
	}
}

// --- Ops ------------------------------------------------------------

// opKind names a gateway request.
type opKind uint8

const (
	opAttach opKind = iota
	opRegister
	opUpdate
	opQuery
	opLookup
	opSubscribe
	opOracle
)

// op is one gateway request as a value: the decoded request, and the
// reply apply fills in on the driver goroutine. Ops are pooled with
// their body buffer and their callbacks bound once, so a request hands
// the driver no fresh closure.
type op struct {
	kind  opKind
	body  bytes.Buffer
	limit io.LimitedReader // reads the body; in the op so it does not escape per request
	req   requests

	code    int // reply status and body
	reply   any
	updated updateResponse
	found   queryResponse // query and lookup records
	window  chan struct{} // closed when a lookup's window ends

	run    func()                        // gw.apply(o)
	mutate func(map[string]string)       // the update's attribute change
	visit  func(discovery.ServiceRecord) // collects a query's records
}

// requests holds one decoded request of each kind.
type requests struct {
	attach    attachRequest
	register  registerRequest
	update    updateRequest
	query     queryRequest
	lookup    lookupRequest
	subscribe subscribeRequest
}

func (gw *Gateway) newOp() any {
	o := new(op)
	o.run = func() { gw.apply(o) }
	o.mutate = func(attrs map[string]string) {
		for k, v := range o.req.update.Attrs {
			attrs[k] = v
		}
		if len(o.req.update.Attrs) == 0 {
			attrs["Rev"] = strconv.FormatUint(o.updated.Version, 10)
		}
	}
	o.visit = func(rec discovery.ServiceRecord) {
		o.found.Records = append(o.found.Records, toRecord(rec))
	}
	return o
}

// decode readies o for a request of kind and decodes r's body into it;
// a failure carries its HTTP status.
func (o *op) decode(kind opKind, r *http.Request) (int, error) {
	o.kind, o.window, o.found.Records = kind, nil, o.found.Records[:0]
	// The update's attrs map is kept: the body merges into it, and
	// apply only copies out of it.
	clear(o.req.update.Attrs)
	o.req = requests{update: updateRequest{Attrs: o.req.update.Attrs}}
	q := &o.req
	shape := [...]wireObject{&q.attach, &q.register, &q.update, &q.query, &q.lookup, &q.subscribe, nil}[kind]
	if shape == nil {
		return 0, nil
	}
	o.body.Reset()
	var err error
	if r.ContentLength <= maxBody { // a declared oversize is refused unread
		o.limit = io.LimitedReader{R: r.Body, N: maxBody + 1}
		_, err = o.body.ReadFrom(&o.limit)
		o.limit.R = nil
	}
	if r.ContentLength > maxBody || o.body.Len() > maxBody {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("bad request: body over %d bytes", maxBody)
	}
	if err == nil {
		err = decodeWire(o.body.Bytes(), shape)
	}
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("bad request: %w", err)
	}
	return 0, nil
}

func (o *op) fail(code int, format string, args ...any) {
	o.code, o.reply = code, errorResponse{Error: fmt.Sprintf(format, args...)}
}

// replyRecords answers with the collected records; none encode as null.
func (o *op) replyRecords() {
	if len(o.found.Records) == 0 {
		o.found.Records = nil
	}
	o.reply = &o.found
}

// apply runs one op on the driver goroutine: the only place a gateway
// request touches simulation state.
func (gw *Gateway) apply(o *op) {
	sc, q := gw.d.sc, &o.req
	o.code, o.reply = http.StatusOK, struct{}{}
	switch o.kind {
	case opAttach:
		gw.nextID++
		uid, each := sc.SpawnUser(numbered("live-client-", gw.nextID), q.attach.Query.toQuery(), gw)
		gw.users[uid] = &clientUser{each: each}
		gw.userCount.Add(1)
		o.reply = attachResponse{User: int(uid)}
	case opRegister:
		if q.register.Spec.Service == "" {
			o.fail(http.StatusBadRequest, "register: empty service type")
			return
		}
		gw.nextID++
		mid, change := sc.SpawnManager(numbered("live-manager-", gw.nextID), q.register.Spec.toSD())
		gw.managers[mid] = &managerState{change: change, version: 1}
		gw.managerCount.Add(1)
		o.reply = registerResponse{Manager: int(mid), Version: 1}
	case opUpdate:
		id := netsim.NodeID(q.update.Manager)
		ms := gw.managers[id]
		switch {
		case id == sc.ManagerID && len(q.update.Attrs) > 0:
			// The measured printer's change is the paper's canonical
			// mutation; client attrs cannot be merged into it, so
			// reject them instead of silently dropping them.
			o.fail(http.StatusBadRequest, "update: the measured printer's change is fixed; update it without attrs")
			return
		case id == sc.ManagerID:
			// Through the change taps, so an attached oracle records
			// the publication.
			gw.measured++
			o.updated.Version = gw.measured
			sc.FireChange()
		case ms == nil:
			o.fail(http.StatusNotFound, "update: unknown manager %d", q.update.Manager)
			return
		default:
			ms.version++
			o.updated.Version = ms.version
			ms.change(o.mutate)
		}
		o.reply = &o.updated
	case opQuery:
		cu := gw.users[netsim.NodeID(q.query.User)]
		if cu == nil {
			o.fail(http.StatusNotFound, "query: unknown user %d", q.query.User)
			return
		}
		cu.each(o.visit)
		o.replyRecords()
	case opLookup:
		lk := &lookup{q: q.lookup.Query.toQuery(), seen: map[netsim.NodeID]uint64{}}
		gw.pending = append(gw.pending, lk)
		gw.sendLookup(lk.q)
		o.window = make(chan struct{})
		gw.d.k.After(LookupWindow, func() {
			gw.pending = slices.DeleteFunc(gw.pending, func(p *lookup) bool { return p == lk })
			for _, rec := range lk.recs {
				o.visit(rec)
			}
			o.replyRecords()
			close(o.window)
		})
	case opSubscribe:
		// A literal IP and port: the loop never waits on a resolver.
		addr, err := netip.ParseAddrPort(q.subscribe.Addr)
		cu := gw.users[netsim.NodeID(q.subscribe.User)]
		switch {
		case err != nil:
			o.fail(http.StatusBadRequest, "subscribe: bad addr %q: %v", q.subscribe.Addr, err)
			return
		case cu == nil:
			o.fail(http.StatusNotFound, "subscribe: unknown user %d", q.subscribe.User)
			return
		}
		cu.notify = netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port())
	case opOracle:
		if gw.d.oracle == nil {
			o.reply = OracleResponse{Attached: false, Clean: true}
			return
		}
		rep := gw.d.oracle.Report()
		resp := OracleResponse{Attached: true, Total: rep.Total, Clean: rep.Clean()}
		for _, v := range rep.Violations {
			resp.Violations = append(resp.Violations, v.String())
		}
		o.reply = resp
		return
	}
	gw.ops.Add(1)
}

// --- HTTP handlers -------------------------------------------------

// handle serves one op kind: decode the request into a pooled op, apply
// it on the driver goroutine, encode its reply. The body is read and
// closed under a read deadline, cleared once the body is done with:
// closing it here also spares the server its post-handler drain of it,
// which no deadline would bound.
func (gw *Gateway) handle(kind opKind) http.HandlerFunc {
	timeout := bodyTimeout
	return func(w http.ResponseWriter, r *http.Request) {
		o := gw.opPool.Get().(*op)
		defer gw.opPool.Put(o)
		setReadDeadline(w, time.Now().Add(timeout))
		code, err := o.decode(kind, r)
		r.Body.Close()
		setReadDeadline(w, time.Time{})
		if err != nil {
			gw.fail(w, code, "%v", err)
			return
		}
		if err := gw.d.Call(o.run); err != nil {
			gw.fail(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		if o.window != nil {
			select {
			case <-o.window:
			case <-gw.d.Done():
				// The loop is gone, and with it the window's timer.
				gw.fail(w, http.StatusServiceUnavailable, "%v", ErrStopped)
				return
			}
		}
		writeJSON(w, o.code, o.reply)
	}
}

// setReadDeadline sets the read deadline of w's connection. It is the
// call http.ResponseController makes, asserted here directly: the
// controller costs the request path an allocation.
func setReadDeadline(w http.ResponseWriter, t time.Time) {
	if rd, ok := w.(interface{ SetReadDeadline(time.Time) error }); ok {
		_ = rd.SetReadDeadline(t) // fails only on a closed connection, which fails the body read too
	}
}

// jsonContentType is every JSON reply's Content-Type header value,
// shared rather than allocated per reply.
var jsonContentType = []string{"application/json"}

// jsonBuf is a pooled buffer with a JSON encoder writing into it: the
// gateway encodes replies into one, the Client request bodies.
type jsonBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var jsonBufs = sync.Pool{New: func() any {
	jb := new(jsonBuf)
	jb.enc = json.NewEncoder(&jb.Buffer)
	return jb
}}

func getJSONBuf() *jsonBuf {
	jb := jsonBufs.Get().(*jsonBuf)
	jb.Reset()
	return jb
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	jb := getJSONBuf()
	defer jsonBufs.Put(jb)
	if err := jb.enc.Encode(v); err != nil {
		log.Printf("live: gateway response encode failed (status %d): %v", code, err)
		http.Error(w, "live: response encode failed", http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(jb.Bytes())
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

// sendLookup puts the search on the fabric: unicast to every Registry
// slot where the system has Registries (Jini's lookup services, FRODO's
// Central — non-Central 300D slots simply ignore it), multicast into
// the discovery group where it does not (UPnP's M-SEARCH, answered by
// Managers directly). Injection failures (a retired Registry slot)
// cannot panic the loop; they are counted so an empty lookup under
// failures is distinguishable from "service not found".
func (gw *Gateway) sendLookup(q discovery.Query) {
	out := netsim.Outgoing{Counted: true, Packet: wire.Packet{Kind: wire.Search, Q: &q},
		Topic: upnp.TopicSearch} // for the M-SEARCH arm; unicast ignores it
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

func (gw *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, gw.Stats())
}

func (gw *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gw.d.Telemetry().WritePrometheus(w)
}

func (gw *Gateway) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.WriteFlightJSON(w, gw.d.FlightDump())
}
