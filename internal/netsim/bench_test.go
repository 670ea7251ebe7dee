package netsim

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkMulticastFanout measures the multicast fast path at the group
// sizes the scale scenarios produce: one wire transmission fanned out to
// every member through the pooled delivery train (insertion-ordered at
// 10, radix-ordered above fanInsertionMax). Steady state allocates
// nothing per copy — -benchmem should report ~0 allocs/op.
func BenchmarkMulticastFanout(b *testing.B) {
	benchFanout(b, DefaultConfig(), 10, 100, 1000, 10000)
}

func benchFanout(b *testing.B, cfg Config, sizes ...int) {
	for _, members := range sizes {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			k, nw, _ := newFanoutNet(cfg, members)
			out := Outgoing{Kind: "announce", Counted: true}
			for i := 0; i < 4; i++ { // warm pools
				nw.Multicast(0, Group(1), out, 1)
				k.Run(k.Now() + sim.Second)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.Multicast(0, Group(1), out, 1)
				k.Run(k.Now() + sim.Second)
			}
			b.ReportMetric(float64(members-1), "deliveries/op")
		})
	}
}

// BenchmarkUnicastFrame measures the pooled single-frame UDP path.
func BenchmarkUnicastFrame(b *testing.B) {
	benchUnicast(b, DefaultConfig())
}

// BenchmarkUnicastFrameGE measures the same path conditioned with
// Gilbert–Elliott burst loss — the PR-4 gate: conditioning must not add
// allocations to the fast path.
func BenchmarkUnicastFrameGE(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Link.Burst = BurstForAverage(0.2, 8)
	benchUnicast(b, cfg)
}

func benchUnicast(b *testing.B, cfg Config) {
	k := sim.New(1)
	nw := mustNew(k, cfg)
	nw.AddNode("a")
	recv := nw.AddNode("b")
	recv.SetEndpoint(&countingEndpoint{})
	out := Outgoing{Kind: "ping", Counted: true}
	for i := 0; i < 64; i++ {
		nw.SendUDP(0, 1, out)
	}
	k.Run(k.Now() + sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.SendUDP(0, 1, out)
		k.Run(k.Now() + sim.Second)
	}
}

// BenchmarkMulticastFanoutPareto measures the multicast fast path with
// heavy-tailed (Pareto table) delay draws — same pooled delivery train,
// one table lookup per receiver, and a wider key for the radix passes.
func BenchmarkMulticastFanoutPareto(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Link.Delay = DelayConfig{Dist: DelayPareto}
	benchFanout(b, cfg, 100, 1000)
}

// newTCPExchangeNet builds the request/response pair every UPnP and Jini
// unicast exchange is: node 0 sends over a fresh connection, node 1
// answers over it. The returned function runs one whole exchange.
func newTCPExchangeNet() (exchange func(), replies *countingEndpoint, nw *Network) {
	k := sim.New(1)
	nw = mustNew(k, DefaultConfig())
	replies = &countingEndpoint{}
	nw.AddNode("client").SetEndpoint(replies)
	response := Outgoing{Kind: "response", Counted: true}
	nw.AddNode("server").SetEndpoint(EndpointFunc(func(m *Message) { m.Conn.Reply(response, nil) }))
	cfg := DefaultTCPConfig() // protocols hold theirs; the schedule slice is not per exchange
	request := Outgoing{Kind: "request", Counted: true}
	exchange = func() {
		nw.SendTCPWith(cfg, 0, 1, request, nil)
		k.Run(k.Now() + 10*sim.Second) // past the canceled setup and RTO timers
	}
	for i := 0; i < 16; i++ {
		exchange() // warm the frame pool, the event pool and the counters
	}
	return exchange, replies, nw
}

// BenchmarkTCPExchange measures one request/response over the simulated
// TCP: eight frames (SYN, SYN-ACK, two data, two ACKs and the two
// accounted sends), three timers. Connections, transfers, frames and
// timers are pooled and moved by static callbacks, so -benchmem reports
// nothing.
func BenchmarkTCPExchange(b *testing.B) {
	exchange, _, _ := newTCPExchangeNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
}
