package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Client drives a live gateway over loopback HTTP. One Client is one
// external participant; sdload runs thousands of them concurrently
// against one gateway (they may share a Transport via NewClientWith).
type Client struct {
	hc   *http.Client
	urls map[string]*url.URL // per gateway path, built once
}

var clientPaths = []string{"/v1/attach", "/v1/register", "/v1/update", "/v1/query",
	"/v1/lookup", "/v1/subscribe", "/v1/stats", "/v1/oracle"}

// jsonHeader is the header of every request with a body. Requests share
// it read-only; net/http writes to a request's header only to add a
// cookie jar's cookies.
var jsonHeader = http.Header{"Content-Type": jsonContentType}

// NewClient returns a client for a gateway at addr ("127.0.0.1:port").
func NewClient(addr string) *Client {
	return NewClientWith(addr, &http.Client{Timeout: 30 * time.Second})
}

// NewClientWith shares an http.Client (and so its connection pool)
// across many Clients — essential when a load generator runs more
// clients than the OS grants file descriptors.
func NewClientWith(addr string, hc *http.Client) *Client {
	c := &Client{hc: hc, urls: make(map[string]*url.URL, len(clientPaths))}
	for _, path := range clientPaths {
		c.urls[path] = &url.URL{Scheme: "http", Host: addr, Path: path}
	}
	return c
}

// reqBody is one request body over a pooled buffer. The transport
// closes a request body when it is done with it, possibly after Do has
// returned, so the buffer goes back to the pool from Close alone, once.
type reqBody struct {
	jb     *jsonBuf
	closed atomic.Bool
}

func (b *reqBody) Read(p []byte) (int, error) { return b.jb.Read(p) }

func (b *reqBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		jsonBufs.Put(b.jb)
	}
	return nil
}

// do sends one request, with in as its JSON body unless nil, and
// decodes a 200 reply into out unless nil; any other status is an error
// carrying the gateway's message.
func (c *Client) do(method, path string, in, out any) error {
	req := &http.Request{Method: method, URL: c.urls[path]}
	if in != nil {
		jb := getJSONBuf()
		if err := jb.enc.Encode(in); err != nil {
			jsonBufs.Put(jb)
			return err
		}
		req.Header, req.Body, req.ContentLength = jsonHeader, &reqBody{jb: jb}, int64(jb.Len())
		if c.hc.Jar != nil {
			req.Header = jsonHeader.Clone()
		}
	}
	hr, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	jb := getJSONBuf()
	defer jsonBufs.Put(jb)
	_, err = jb.ReadFrom(hr.Body)
	hr.Body.Close()
	if err != nil {
		return err
	}
	if hr.StatusCode != http.StatusOK {
		var er errorResponse
		if json.Unmarshal(jb.Bytes(), &er) == nil && er.Error != "" {
			return fmt.Errorf("live: %s: %s", path, er.Error)
		}
		return fmt.Errorf("live: %s: HTTP %d", path, hr.StatusCode)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case wireObject:
		return decodeWire(jb.Bytes(), out)
	default:
		return json.Unmarshal(jb.Bytes(), out)
	}
}

func (c *Client) post(path string, in, out any) error { return c.do(http.MethodPost, path, in, out) }

// Attach spawns a protocol User with the given requirement and returns
// its node ID — the client's identity for Query and Subscribe.
func (c *Client) Attach(q ServiceQuery) (int, error) {
	var resp attachResponse
	if err := c.post("/v1/attach", attachRequest{Query: q}, &resp); err != nil {
		return 0, err
	}
	return resp.User, nil
}

// Register spawns a Manager hosting the service and returns its node ID.
func (c *Client) Register(spec ServiceSpec) (int, error) {
	var resp registerResponse
	if err := c.post("/v1/register", registerRequest{Spec: spec}, &resp); err != nil {
		return 0, err
	}
	return resp.Manager, nil
}

// Update mutates a registered service's attributes, bumping its
// version; the new version is returned.
func (c *Client) Update(manager int, attrs map[string]string) (uint64, error) {
	var resp updateResponse
	if err := c.post("/v1/update", updateRequest{Manager: manager, Attrs: attrs}, &resp); err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// Query reads the client User's cache — what the protocol has
// discovered so far for the Attach-time requirement.
func (c *Client) Query(user int) ([]Record, error) {
	var resp queryResponse
	if err := c.post("/v1/query", queryRequest{User: user}, &resp); err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// Subscribe asks the gateway to push the user's cache writes as UDP
// datagrams to addr (usually a NotifyHub's).
func (c *Client) Subscribe(user int, addr string) error {
	return c.post("/v1/subscribe", subscribeRequest{User: user, Addr: addr}, nil)
}

// Stats reads the gateway's progress counters.
func (c *Client) Stats() (StatsResponse, error) {
	var resp StatsResponse
	err := c.do(http.MethodGet, "/v1/stats", nil, &resp)
	return resp, err
}

// Oracle reads the gateway's consistency-oracle report; a gateway that
// cannot produce one (its driver stopped) is an error.
func (c *Client) Oracle() (OracleResponse, error) {
	var resp OracleResponse
	err := c.do(http.MethodGet, "/v1/oracle", nil, &resp)
	return resp, err
}

// NotifyHub receives pushed notifications on one shared UDP socket and
// dispatches them to per-user channels, so a thousand load-generator
// clients cost one file descriptor, not a thousand.
type NotifyHub struct {
	conn *net.UDPConn
	mu   sync.Mutex
	subs map[int]chan Notification
	done chan struct{}
}

// NewNotifyHub opens the hub on an ephemeral loopback port.
func NewNotifyHub() (*NotifyHub, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	h := &NotifyHub{conn: conn, subs: map[int]chan Notification{}, done: make(chan struct{})}
	go h.loop()
	return h, nil
}

// Addr reports the hub's listening address, for Client.Subscribe.
func (h *NotifyHub) Addr() string { return h.conn.LocalAddr().String() }

// Chan returns the notification channel for one user, creating it on
// first use. The channel is buffered; overflow drops (UDP semantics
// end to end).
func (h *NotifyHub) Chan(user int) <-chan Notification {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := h.subs[user]
	if ch == nil {
		ch = make(chan Notification, 64)
		h.subs[user] = ch
	}
	return ch
}

// Close stops the hub.
func (h *NotifyHub) Close() {
	h.conn.Close()
	<-h.done
}

func (h *NotifyHub) loop() {
	defer close(h.done)
	buf := make([]byte, 64<<10)
	var note Notification
	for {
		n, _, err := h.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		note = Notification{}
		if decodeWire(buf[:n], &note) != nil {
			continue
		}
		h.mu.Lock()
		ch := h.subs[note.User]
		h.mu.Unlock()
		if ch == nil {
			continue
		}
		select {
		case ch <- note:
		default:
		}
	}
}
