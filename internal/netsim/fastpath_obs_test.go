// The telemetry-enabled twins of the conditioned fast-path alloc
// gates: the same zero budgets must hold with an obs.NetTracer attached,
// because the tracer's per-message work is atomic adds and RLocked map
// lookups only. An external test package — obs imports netsim, so
// these cannot live in package netsim itself.
package netsim_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

type countingSink struct{ n int }

func (c *countingSink) Deliver(m *netsim.Message) { c.n++ }

// GE-conditioned unicast with a metrics tracer attached allocates
// nothing.
func TestUnicastAllocsPerFrameGEWithTelemetry(t *testing.T) {
	cfg := netsim.DefaultConfig()
	cfg.Link.Burst = netsim.BurstForAverage(0.2, 8)
	k := sim.New(1)
	nw, err := netsim.New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	nw.SetTracer(reg.NetTracer())
	nw.AddNode("a")
	b := nw.AddNode("b")
	ep := &countingSink{}
	b.SetEndpoint(ep)
	out := netsim.Outgoing{Kind: "ping"}
	for i := 0; i < 64; i++ {
		nw.SendUDP(0, 1, out)
	}
	k.Run(k.Now() + sim.Second)
	allocs := testing.AllocsPerRun(200, func() {
		nw.SendUDP(0, 1, out)
		k.Run(k.Now() + sim.Second)
	})
	if allocs != 0 {
		t.Errorf("metered GE unicast frame costs %.1f allocs/op, want 0", allocs)
	}
	if ep.n == 0 {
		t.Fatal("no deliveries — measurement is vacuous")
	}
	if reg.Counter("sd_frames_sent_total", "shard", "0").Load() == 0 {
		t.Fatal("tracer attached but nothing metered — the gate is vacuous")
	}
	netsim.CheckPoolsDrained(t, nw)
}

// Pareto-delay multicast fan-out with both a metrics tracer and a
// flight recorder attached allocates nothing: the ring append is a
// masked struct copy into preallocated storage.
func TestMulticastFanoutAllocsParetoWithTelemetry(t *testing.T) {
	cfg := netsim.DefaultConfig()
	cfg.Link.Delay = netsim.DelayConfig{Dist: netsim.DelayPareto}
	k := sim.New(1)
	nw, err := netsim.New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(256)
	nw.SetTracer(netsim.TeeTracer(reg.NetTracer(), fr))
	const members = 100
	ep := &countingSink{}
	for i := 0; i < members; i++ {
		n := nw.AddNode("")
		n.SetEndpoint(ep)
		nw.Join(n.ID, netsim.Group(1))
	}
	out := netsim.Outgoing{Kind: "announce"}
	for i := 0; i < 8; i++ {
		nw.Multicast(0, netsim.Group(1), out, 1)
		k.Run(k.Now() + sim.Second)
	}
	allocs := testing.AllocsPerRun(100, func() {
		nw.Multicast(0, netsim.Group(1), out, 1)
		k.Run(k.Now() + sim.Second)
	})
	if allocs != 0 {
		t.Errorf("metered Pareto fan-out costs %.1f allocs/copy over %d members, want 0", allocs, members)
	}
	if ep.n < members-1 {
		t.Fatalf("fan-out delivered %d, want ≥ %d", ep.n, members-1)
	}
	if fr.Snapshot().Total == 0 {
		t.Fatal("flight recorder attached but empty — the gate is vacuous")
	}
	netsim.CheckPoolsDrained(t, nw)
}
