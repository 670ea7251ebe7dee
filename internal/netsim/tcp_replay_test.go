package netsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The TCP transport is replayed against logs RECORDED ON THE PARENT TREE
// (tcp_replay_golden_test.go), where every frame was an individually
// allocated Message moved by closures: frame kinds and instants, drop
// reasons, onResult order, the Counters and the position of the kernel's
// random stream must all come out the same from the pooled transport.

// tcpLog is a Tracer that renders every frame event as one line.
type tcpLog struct {
	k     *sim.Kernel
	lines []string
}

func (l *tcpLog) frame(op string, t sim.Time, m *Message, reason string) {
	s := fmt.Sprintf("%d %s %s %d>%d %s", int64(t), op, m.Kind, m.From, m.To, m.Transport)
	if m.Retransmit {
		s += " retx"
	}
	if m.Counted {
		s += " counted"
	}
	if reason != "" {
		s += " :" + reason
	}
	l.lines = append(l.lines, s)
}

func (l *tcpLog) MessageSent(t sim.Time, m *Message)      { l.frame("S", t, m, "") }
func (l *tcpLog) MessageDelivered(t sim.Time, m *Message) { l.frame("R", t, m, "") }
func (l *tcpLog) MessageDropped(t sim.Time, m *Message, reason string) {
	l.frame("D", t, m, reason)
}
func (l *tcpLog) NodeEvent(t sim.Time, node NodeID, event string) {
	l.lines = append(l.lines, fmt.Sprintf("%d N %d %s", int64(t), node, event))
}

// result returns an onResult callback that logs its outcome under name.
func (l *tcpLog) result(name string) func(error) {
	return func(err error) {
		l.lines = append(l.lines, fmt.Sprintf("%d result %s %v", int64(l.k.Now()), name, err))
	}
}

// tcpScenario sets a run up on a two-node harness (node 0 initiates) and
// reports how long to run it.
type tcpScenario struct {
	name    string
	cfg     Config
	horizon sim.Time
	setup   func(h *harness, l *tcpLog)
}

// replyWith makes node answer every TCP payload over its connection.
func replyWith(h *harness, l *tcpLog, node int, name string) {
	h.nodes[node].SetEndpoint(EndpointFunc(func(m *Message) {
		m.Conn.Reply(Outgoing{Kind: "reply", Counted: true}, l.result(name))
	}))
}

func lossyConfig(p float64) Config {
	cfg := DefaultConfig()
	cfg.Loss = p
	return cfg
}

func tcpScenarios() []tcpScenario {
	afterSetup := 250 * sim.Microsecond // fixedDelayConfig(100µs): SYN-ACK lands at 200µs, data at 300µs
	return []tcpScenario{
		{"exchange-reply", DefaultConfig(), 10 * sim.Second, func(h *harness, l *tcpLog) {
			replyWith(h, l, 1, "reply")
			h.nw.SendTCP(0, 1, Outgoing{Kind: "get", Counted: true}, l.result("get"))
			// A second exchange reuses whatever the first one released.
			h.k.At(sim.Second, func() {
				h.nw.SendTCP(0, 1, Outgoing{Kind: "get", Counted: true}, l.result("get2"))
			})
		}},
		{"syn-lost-retry", DefaultConfig(), 200 * sim.Second, func(h *harness, l *tcpLog) {
			h.nodes[1].SetRx(false)
			h.k.At(25*sim.Second, func() { h.nodes[1].SetRx(true) })
			h.nw.SendTCP(0, 1, Outgoing{Kind: "notify", Counted: true}, l.result("notify"))
		}},
		{"rex", DefaultConfig(), 200 * sim.Second, func(h *harness, l *tcpLog) {
			h.nodes[0].SetTx(false)
			h.nw.SendTCP(0, 1, Outgoing{Kind: "notify", Counted: true}, l.result("notify"))
		}},
		{"abort-mid-setup", DefaultConfig(), 200 * sim.Second, func(h *harness, l *tcpLog) {
			h.nodes[1].SetRx(false)
			conn := dialTCP(h.nw, DefaultTCPConfig(), 0, 1, Outgoing{Kind: "notify"}, l.result("notify"))
			h.k.At(10*sim.Second, conn.abort)
			h.k.At(20*sim.Second, func() { h.nodes[1].SetRx(true) })
		}},
		{"abort-mid-transfer", fixedDelayConfig(100 * sim.Microsecond), 50 * sim.Second, func(h *harness, l *tcpLog) {
			h.k.At(afterSetup, func() { h.nodes[1].SetRx(false) })
			conn := dialTCP(h.nw, DefaultTCPConfig(), 0, 1, Outgoing{Kind: "notify"}, l.result("notify"))
			h.k.At(5*sim.Second, conn.abort)
			h.k.At(6*sim.Second, func() { h.nodes[1].SetRx(true) })
		}},
		{"rto-backoff", fixedDelayConfig(100 * sim.Microsecond), 100 * sim.Second, func(h *harness, l *tcpLog) {
			h.k.At(afterSetup, func() { h.nodes[1].SetRx(false) })
			h.k.At(40*sim.Second, func() { h.nodes[1].SetRx(true) })
			h.nw.SendTCP(0, 1, Outgoing{Kind: "notify"}, l.result("notify"))
		}},
		{"rto-ceiling-jitter", fixedDelayConfig(100 * sim.Microsecond), 100 * sim.Second, func(h *harness, l *tcpLog) {
			h.k.At(afterSetup, func() { h.nodes[1].SetRx(false) })
			h.k.At(20*sim.Second, func() { h.nodes[1].SetRx(true) })
			cfg := DefaultTCPConfig()
			cfg.MaxRTO = 2 * sim.Second
			cfg.RTOJitter = 0.5
			h.nw.SendTCPWith(cfg, 0, 1, Outgoing{Kind: "notify"}, l.result("notify"))
		}},
		{"data-retransmit-cap", fixedDelayConfig(100 * sim.Microsecond), 100 * sim.Second, func(h *harness, l *tcpLog) {
			h.k.At(afterSetup, func() { h.nodes[1].SetRx(false) })
			cfg := DefaultTCPConfig()
			cfg.DataRetransmits = 3
			h.nw.SendTCPWith(cfg, 0, 1, Outgoing{Kind: "notify"}, l.result("notify"))
		}},
		{"ack-path-down", fixedDelayConfig(100 * sim.Microsecond), 60 * sim.Second, func(h *harness, l *tcpLog) {
			// Data flows forward, ACKs are lost: retransmissions are
			// re-ACKed but the payload is delivered once.
			h.k.At(afterSetup, func() { h.nodes[1].SetTx(false) })
			h.k.At(10*sim.Second, func() { h.nodes[1].SetTx(true) })
			h.nw.SendTCP(0, 1, Outgoing{Kind: "notify"}, l.result("notify"))
		}},
		{"abort-on-retire-setup", DefaultConfig(), 200 * sim.Second, func(h *harness, l *tcpLog) {
			h.nodes[1].SetRx(false)
			cfg := DefaultTCPConfig()
			cfg.AbortOnRetire = true
			h.nw.SendTCPWith(cfg, 0, 1, Outgoing{Kind: "notify"}, l.result("notify"))
			h.k.At(10*sim.Second, func() { h.nw.Retire(0) })
		}},
		{"abort-on-retire-recycled-slot", fixedDelayConfig(100 * sim.Microsecond), 100 * sim.Second, func(h *harness, l *tcpLog) {
			h.k.At(afterSetup, func() { h.nodes[1].SetRx(false) })
			cfg := DefaultTCPConfig()
			cfg.AbortOnRetire = true
			h.nw.SendTCPWith(cfg, 0, 1, Outgoing{Kind: "notify"}, l.result("notify"))
			h.k.At(2*sim.Second, func() {
				h.nw.Retire(0)
				h.nw.AddNode("tenant") // recycles slot 0 with a bumped generation
			})
		}},
		{"receiver-slot-recycled-in-flight", fixedDelayConfig(100 * sim.Microsecond), 150 * sim.Second, func(h *harness, l *tcpLog) {
			// The SYN is in flight when the receiver's slot changes hands.
			h.nw.SendTCP(0, 1, Outgoing{Kind: "notify"}, l.result("notify"))
			h.k.At(50*sim.Microsecond, func() {
				h.nw.Retire(1)
				h.nw.AddNode("tenant")
			})
		}},
		{"lossy-exchanges", lossyConfig(0.3), 400 * sim.Second, func(h *harness, l *tcpLog) {
			replyWith(h, l, 1, "reply")
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("get%d", i)
				h.k.At(sim.Time(i)*sim.Second+sim.Millisecond, func() {
					h.nw.SendTCP(0, 1, Outgoing{Kind: name, Counted: true}, l.result(name))
				})
			}
		}},
	}
}

// runTCPScenario replays one scenario and renders its log.
func runTCPScenario(t *testing.T, sc tcpScenario) string {
	h := newHarness(t, 2, sc.cfg)
	l := &tcpLog{k: h.k}
	h.nw.SetTracer(l)
	sc.setup(h, l)
	h.k.Run(sc.horizon)
	c := h.nw.Counters()
	l.lines = append(l.lines,
		fmt.Sprintf("counters sends=%d discovery=%d transport=%d delivered=%d drops=%d counted=%d",
			c.Sends, c.DiscoverySends, c.TransportFrames, c.Delivered, c.Drops, c.Counted()),
		fmt.Sprintf("rng %d", h.k.Rand().Int63()))
	return strings.Join(l.lines, "\n") + "\n"
}

func TestTCPReplaysParentSequences(t *testing.T) {
	for _, sc := range tcpScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			want, ok := tcpReplayGolden[sc.name]
			if !ok {
				t.Fatalf("no recorded sequence for %q", sc.name)
			}
			if got := runTCPScenario(t, sc); got != want {
				t.Errorf("sequence differs from the one recorded on the parent tree\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
