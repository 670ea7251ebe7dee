package netsim

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestTCPConnPoolBalance drives connections through every way a
// conversation ends, runs the kernel dry, and checks the pool's books:
// every connection went back exactly once — the free list holds each
// record the pool ever made, once, and the records' release counts sum
// to the conversations opened — and none was recycled while a frame
// still pointed at it, which tcpFrameArrive turns into a panic. The
// cases keep frames in flight past the end of a conversation (duplicate
// data and ACKs, late SYN-ACKs, an abort or a REX overtaking its own
// frames), so a pool that released a connection on its last transfer
// alone would recycle it under a frame still on the wire.
func TestTCPConnPoolBalance(t *testing.T) {
	afterSetup := 250 * sim.Microsecond // fixedDelayConfig(100µs): SYN-ACK lands at 200µs, data at 300µs
	eager := DefaultTCPConfig()
	eager.MinRTO = sim.Microsecond // the RTO is the measured RTT: data retransmits while its ACK is in flight
	quickREX := DefaultTCPConfig()
	quickREX.SetupRetransmits = []sim.Duration{sim.Second}
	quickREX.SetupFinalWait = sim.Second
	capped := DefaultTCPConfig()
	capped.DataRetransmits = HardenedDataRetransmits
	capped.MaxRTO = HardenedMaxRTO
	capped.RTOJitter = HardenedRTOJitter
	retiring := capped
	retiring.AbortOnRetire = true

	type opener func(cfg TCPConfig, out Outgoing) tcpHandle
	cases := []struct {
		name  string
		cfg   Config
		setup func(h *harness, open opener)
	}{
		{"random-loss", lossyConfig(0.3), func(h *harness, open opener) {
			for i := 0; i < 12; i++ {
				h.k.At(sim.Time(i)*300*sim.Millisecond, func() { open(DefaultTCPConfig(), Outgoing{Kind: "get"}) })
			}
		}},
		{"rx-outage-during-data", fixedDelayConfig(100 * sim.Microsecond), func(h *harness, open opener) {
			h.k.At(afterSetup, func() { h.nodes[1].SetRx(false) })
			h.k.At(30*sim.Second, func() { h.nodes[1].SetRx(true) })
			open(DefaultTCPConfig(), Outgoing{Kind: "get"})
			open(DefaultTCPConfig(), Outgoing{Kind: "get"})
		}},
		{"duplicate-data-and-acks", DefaultConfig(), func(h *harness, open opener) {
			for i := 0; i < 12; i++ {
				h.k.At(sim.Time(i)*sim.Millisecond, func() { open(eager, Outgoing{Kind: "get"}) })
			}
		}},
		{"ack-path-down", fixedDelayConfig(100 * sim.Microsecond), func(h *harness, open opener) {
			h.k.At(afterSetup, func() { h.nodes[1].SetTx(false) })
			h.k.At(10*sim.Second, func() { h.nodes[1].SetTx(true) })
			open(DefaultTCPConfig(), Outgoing{Kind: "notify"})
		}},
		{"late-syn-ack", fixedDelayConfig(4 * sim.Second), func(h *harness, open opener) {
			// The SYN retransmitted at 6s is answered at 14s, after the
			// first SYN-ACK (8s) established the connection.
			open(DefaultTCPConfig(), Outgoing{Kind: "get"})
		}},
		{"setup-rex", DefaultConfig(), func(h *harness, open opener) {
			h.nodes[1].SetRx(false)
			open(DefaultTCPConfig(), Outgoing{Kind: "notify"})
		}},
		{"setup-rex-before-syn-acks", fixedDelayConfig(1500 * sim.Millisecond), func(h *harness, open opener) {
			// REX at 2s; both SYN-ACKs are still on the wire (3s, 4s).
			open(quickREX, Outgoing{Kind: "notify"})
		}},
		{"abort-with-frames-in-flight", fixedDelayConfig(sim.Second), func(h *harness, open opener) {
			// Established at 2s; the data frame sent then lands at 3s,
			// after the abort, and is still delivered and ACKed.
			conn := open(DefaultTCPConfig(), Outgoing{Kind: "notify"})
			h.k.At(2500*sim.Millisecond, conn.abort)
			setup := open(DefaultTCPConfig(), Outgoing{Kind: "notify"})
			h.k.At(500*sim.Millisecond, setup.abort) // SYN in flight
		}},
		{"hardened-data-retransmits", fixedDelayConfig(100 * sim.Microsecond), func(h *harness, open opener) {
			h.k.At(afterSetup, func() { h.nodes[1].SetRx(false) })
			open(capped, Outgoing{Kind: "notify"})
		}},
		{"hardened-abort-on-retire", fixedDelayConfig(100 * sim.Microsecond), func(h *harness, open opener) {
			h.k.At(afterSetup, func() { h.nodes[1].SetRx(false) })
			open(retiring, Outgoing{Kind: "notify"})
			h.k.At(2*sim.Second, func() {
				h.nw.Retire(0)
				h.nw.AddNode("tenant") // recycles slot 0: the transfer aborts
				h.nodes[1].SetRx(true)
			})
			h.k.At(3*sim.Second, func() { open(retiring, Outgoing{Kind: "get"}) })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, 2, c.cfg)
			// The server answers every payload over its connection, and
			// keeps the Conn of the last one past Deliver.
			var kept *TCPConn
			h.nodes[1].SetEndpoint(EndpointFunc(func(m *Message) {
				kept = m.Conn
				m.Conn.Reply(Outgoing{Kind: "reply"}, nil)
			}))
			opened, results := 0, 0
			open := func(cfg TCPConfig, out Outgoing) tcpHandle {
				opened++
				return dialTCP(h.nw, cfg, 0, 1, out, func(error) { results++ })
			}
			c.setup(h, open)
			drain(h.k)
			if opened == 0 || results != opened {
				t.Fatalf("%d conversations opened, %d finished", opened, results)
			}
			free, made, releases, dup := tcpConnPool(h.nw)
			if dup {
				t.Fatal("a connection is pooled twice")
			}
			if free != made {
				t.Errorf("%d of %d connections pooled after the drain", free, made)
			}
			if releases != opened {
				t.Errorf("connections released %d times for %d conversations", releases, opened)
			}
			if kept != nil {
				assertPanics(t, "Reply on a released connection", func() {
					kept.Reply(Outgoing{Kind: "late"}, nil)
				})
			}
		})
	}
}

func assertPanics(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestTCPConnPoolReclaimedOnRearm checks that a rearm takes back the
// connections a run left open — their frames and timers went with the
// reset kernel — so the next run opens its connections from the pool.
func TestTCPConnPoolReclaimedOnRearm(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.nodes[1].SetRx(false)
	for i := 0; i < 5; i++ {
		h.nw.SendTCPWith(DefaultTCPConfig(), 0, 1, Outgoing{Kind: fmt.Sprint(i)}, nil)
	}
	h.k.Run(10 * sim.Second) // every connection still in setup
	if free, made, _, _ := tcpConnPool(h.nw); free+5 != made {
		t.Fatalf("%d of %d connections pooled mid-run, want all but 5", free, made)
	}
	h.k.Reset(1)
	h.nw.Rearm(h.k, DefaultConfig(), 2)
	if free, made, _, dup := tcpConnPool(h.nw); dup || free != made {
		t.Fatalf("%d of %d connections pooled after the rearm (dup %v)", free, made, dup)
	}
}
