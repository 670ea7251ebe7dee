package netsim

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

func TestTCPDeliverySuccess(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	var result error
	done := false
	h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: "notify", Counted: true, Packet: wire.Packet{N: 1}}, func(err error) {
		result = err
		done = true
	})
	h.k.Run(10 * sim.Second)
	if !done {
		t.Fatal("transfer never completed")
	}
	if result != nil {
		t.Fatalf("transfer failed: %v", result)
	}
	if len(h.inbox[1]) != 1 || h.inbox[1][0].Packet.N != 1 {
		t.Fatalf("payload not delivered: %v", h.inbox[1])
	}
	c := h.nw.Counters()
	if c.DiscoverySends != 1 {
		t.Errorf("discovery sends = %d, want 1", c.DiscoverySends)
	}
	// SYN, SYN-ACK, ACK at minimum.
	if c.TransportFrames < 3 {
		t.Errorf("transport frames = %d, want >= 3", c.TransportFrames)
	}
	if c.Counted() != 1 {
		t.Errorf("counted = %d, want 1", c.Counted())
	}
}

func TestTCPRexAfterSetupSchedule(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[1].SetRx(false) // receiver unreachable for the whole run
	var result error
	var finishedAt sim.Time
	done := false
	h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: "notify"}, func(err error) {
		result = err
		finishedAt = h.k.Now()
		done = true
	})
	h.k.Run(500 * sim.Second)
	if !done {
		t.Fatal("REX never raised")
	}
	if result != ErrREX {
		t.Fatalf("got %v, want ErrREX", result)
	}
	// Attempts at 0, 6, 30, 54, 78; final wait 24s => REX at 102s.
	if finishedAt != 102*sim.Second {
		t.Errorf("REX at %v, want 102s", finishedAt)
	}
	// The discovery layer handed one message to the transport: that
	// attempt counts even though the payload never crossed the wire.
	if h.nw.Counters().DiscoverySends != 1 {
		t.Errorf("discovery sends = %d, want 1 (the attempt)", h.nw.Counters().DiscoverySends)
	}
	if h.nw.Counters().TransportFrames != 5 {
		t.Errorf("transport frames = %d, want 5 SYNs", h.nw.Counters().TransportFrames)
	}
}

func TestTCPSetupRecoversWithinSchedule(t *testing.T) {
	// Receiver comes back before the retransmission schedule is exhausted:
	// the transfer must succeed, late but complete.
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[1].SetRx(false)
	h.k.At(40*sim.Second, func() { h.nodes[1].SetRx(true) })
	var result error
	done := false
	h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: "notify"}, func(err error) { result, done = err, true })
	h.k.Run(200 * sim.Second)
	if !done || result != nil {
		t.Fatalf("done=%v result=%v, want successful completion", done, result)
	}
	if len(h.inbox[1]) != 1 {
		t.Error("payload not delivered after recovery")
	}
}

// fixedDelayConfig pins the frame delay so tests can carve failures
// precisely between the setup and data phases of a TCP transfer.
func fixedDelayConfig(d sim.Duration) Config {
	cfg := DefaultConfig()
	cfg.MinDelay, cfg.MaxDelay = d, d
	return cfg
}

func TestTCPDataRetransmitUntilSuccess(t *testing.T) {
	// Setup succeeds, then the receiver fails before the data lands and
	// recovers much later: data must retransmit until delivered ("Data
	// transfer: retransmit until success").
	h := newHarness(t, 2, fixedDelayConfig(100*sim.Microsecond))
	// SYN @100µs, SYN-ACK @200µs, data sent @200µs arrives @300µs: fail
	// the receiver in between.
	h.k.At(250*sim.Microsecond, func() { h.nodes[1].SetRx(false) })
	h.k.At(600*sim.Second, func() { h.nodes[1].SetRx(true) })
	// The connection is pooled once the exchange ends: ask it during
	// Deliver, while the Message (and its Conn) is valid.
	established := false
	h.nodes[1].SetEndpoint(EndpointFunc(func(m *Message) {
		established = m.Conn.established
		cp := *m
		h.inbox[1] = append(h.inbox[1], &cp)
	}))
	var result error
	done := false
	h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: "notify"}, func(err error) { result, done = err, true })
	h.k.Run(2000 * sim.Second)
	if !established {
		t.Fatal("connection not established")
	}
	if !done || result != nil {
		t.Fatalf("done=%v result=%v, want delivered after recovery", done, result)
	}
	if len(h.inbox[1]) != 1 {
		t.Fatalf("payload delivered %d times, want exactly once", len(h.inbox[1]))
	}
	if h.nw.Counters().TransportFrames < 10 {
		t.Errorf("expected many retransmissions, got %d transport frames", h.nw.Counters().TransportFrames)
	}
}

func TestTCPBackoffGrows(t *testing.T) {
	// With the receiver down for ~100s after setup, timeouts grow by 25%
	// per retry from the 1s floor; count sends to confirm sub-linear
	// growth (~21 sends rather than 100).
	h := newHarness(t, 2, fixedDelayConfig(100*sim.Microsecond))
	h.k.At(250*sim.Microsecond, func() { h.nodes[1].SetRx(false) })
	h.k.At(100*sim.Second, func() { h.nodes[1].SetRx(true) })
	h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: "notify"}, nil)
	h.k.Run(200 * sim.Second)
	frames := h.nw.Counters().TransportFrames
	// Retransmissions needed: sum of 1 * 1.25^k >= 100 => ~17 retries.
	if frames < 10 || frames > 40 {
		t.Errorf("transport frames = %d, want ~20 with 25%% backoff", frames)
	}
}

func TestTCPReply(t *testing.T) {
	// Request/response over one connection: UPnP GET + 200 OK.
	h := newHarness(t, 2, DefaultConfig())
	// TCP frames and connections are pooled: an endpoint keeps a copy of
	// the Message, never the pointer, past Deliver, and answers over
	// m.Conn during it. The reply keeps the connection open, so the
	// request's Conn is still the same record when the reply lands.
	var reqConn *TCPConn
	var reply *Message
	sameConn := false
	h.nodes[1].SetEndpoint(EndpointFunc(func(m *Message) {
		cp := *m
		h.inbox[1] = append(h.inbox[1], &cp)
		reqConn = m.Conn
		m.Conn.Reply(Outgoing{Kind: "response", Counted: true, Packet: wire.Packet{N: 2}}, nil)
	}))
	h.nodes[0].SetEndpoint(EndpointFunc(func(m *Message) {
		cp := *m
		reply = &cp
		sameConn = m.Conn == reqConn && m.Conn.from == 0 && m.Conn.to == 1
	}))
	h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: "get", Counted: true}, nil)
	h.k.Run(10 * sim.Second)
	if len(h.inbox[1]) != 1 {
		t.Fatal("request not delivered")
	}
	if reply == nil || reply.Packet.N != 2 {
		t.Fatalf("reply not delivered: %v", reply)
	}
	if !sameConn {
		t.Error("delivered messages do not carry the connection they arrived on")
	}
	if h.nw.Counters().Counted() != 2 {
		t.Errorf("counted = %d, want 2 (request + response)", h.nw.Counters().Counted())
	}
}

func TestTCPAbort(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[1].SetRx(false)
	var result error
	done := false
	conn := dialTCP(h.nw, DefaultTCPConfig(), 0, 1, Outgoing{Kind: "notify"}, func(err error) { result, done = err, true })
	h.k.At(10*sim.Second, conn.abort)
	h.k.Run(500 * sim.Second)
	if !done || result != ErrAborted {
		t.Fatalf("done=%v result=%v, want ErrAborted", done, result)
	}
	// The aborted connection is back in the pool; aborting the ended
	// conversation again does nothing.
	if conn.live() {
		t.Error("aborted connection with nothing in flight was not pooled")
	}
	conn.abort()
}

func TestTCPSenderTxDownDuringSetup(t *testing.T) {
	// Sender's transmitter is down: SYNs never leave, REX after schedule.
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[0].SetTx(false)
	var result error
	done := false
	h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: "x"}, func(err error) { result, done = err, true })
	h.k.Run(200 * sim.Second)
	if !done || result != ErrREX {
		t.Fatalf("done=%v result=%v, want ErrREX", done, result)
	}
}

func TestTCPDuplicateDataSuppressed(t *testing.T) {
	// Lose the ACK path after data delivery: sender retransmits, receiver
	// must not see the payload twice.
	h := newHarness(t, 2, fixedDelayConfig(100*sim.Microsecond))
	delivered := 0
	h.nodes[1].SetEndpoint(EndpointFunc(func(m *Message) { delivered++ }))
	// Break the reverse path (node1 Tx) right after setup: SYN-ACK got
	// through, data flows forward, ACKs are lost, retransmissions repeat.
	h.k.At(250*sim.Microsecond, func() { h.nodes[1].SetTx(false) })
	h.k.At(30*sim.Second, func() { h.nodes[1].SetTx(true) })
	var result error
	done := false
	h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: "x"}, func(err error) { result, done = err, true })
	h.k.Run(100 * sim.Second)
	if delivered != 1 {
		t.Errorf("payload delivered %d times, want 1", delivered)
	}
	if !done || result != nil {
		t.Errorf("done=%v result=%v, want eventual success", done, result)
	}
}

func TestTCPReplyPanicsBeforeEstablished(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[1].SetRx(false)
	conn := dialTCP(h.nw, DefaultTCPConfig(), 0, 1, Outgoing{Kind: "x"}, nil)
	defer func() {
		if recover() == nil {
			t.Error("Reply before establishment did not panic")
		}
	}()
	conn.c.Reply(Outgoing{Kind: "y"}, nil) // live: the SYN is in flight
}

func TestTCPFrameZeroedAfterDeliver(t *testing.T) {
	// A delivered TCP Message is a pooled frame's: once Deliver returns it
	// is zeroed (so the pool pins no payload) and will be rewritten by a
	// later frame. Only the copy an endpoint takes survives.
	h := newHarness(t, 2, DefaultConfig())
	var retained *Message
	var copied Message
	h.nodes[1].SetEndpoint(EndpointFunc(func(m *Message) { retained, copied = m, *m }))
	h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: "notify", Packet: wire.Packet{N: 1}}, nil)
	h.k.Run(10 * sim.Second)
	if copied.Packet.N != 1 || copied.Conn == nil {
		t.Fatalf("copy taken during Deliver = %+v", copied)
	}
	if !reflect.DeepEqual(*retained, Message{}) {
		t.Errorf("released frame still holds %+v", *retained)
	}
}
