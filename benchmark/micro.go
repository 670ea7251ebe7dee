package main

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// microProbes times the sim and netsim layers alone, on a bare Kernel
// and a bare Network, so a traced run can tell a change in a layer's
// unit cost from a change in how often the workload calls it. They do
// not depend on the workload and run in every traced pass.
func microProbes(cfg runConfig, tr *tracer, parent int, res *result) {
	id := tr.begin("benchmark.micro_sim", parent, 0, 0)
	seed := deriveSeed(cfg.seed, streamMicro, 0)
	ns, allocs := kernelProbe(seed, 1<<10, 10000*cfg.sz.micro)
	res.set("sim.ns_per_event_d1k", ns)
	res.set("sim.allocs_per_event", allocs)
	ns, _ = kernelProbe(seed, cfg.sz.kernelDepth, 10000*cfg.sz.micro)
	res.set("sim.ns_per_event_d1m", ns)
	tr.end(id)

	id = tr.begin("benchmark.micro_netsim", parent, 0, 0)
	plain := netsim.DefaultConfig()
	ge := netsim.DefaultConfig()
	ge.Link.Burst = netsim.BurstForAverage(0.2, 8)
	ns, allocs = unicastProbe(seed, plain, 2000*cfg.sz.micro)
	res.set("netsim.ns_per_unicast", ns)
	res.set("netsim.allocs_per_frame", allocs)
	ns, _ = unicastProbe(seed, ge, 2000*cfg.sz.micro)
	res.set("netsim.ns_per_unicast_ge", ns)
	res.set("netsim.ns_per_delivery_m100", multicastProbe(seed, 100, 200*cfg.sz.micro))
	res.set("netsim.ns_per_delivery_m10k", multicastProbe(seed, cfg.sz.fanout, 2*cfg.sz.micro))
	tr.end(id)
}

// batches is how many equal slices a probe's work is timed in; the
// probe reports the median slice, so one preempted slice does not move
// the number.
const batches = 5

// kernelProbe keeps depth self-rescheduling timers pending and times
// schedule+fire (Kernel.After + Run) per event over about events
// firings.
func kernelProbe(seed int64, depth, events int) (nsPerEvent, allocsPerEvent float64) {
	k := sim.New(seed)
	var tick func()
	tick = func() { k.After(k.UniformDuration(sim.Millisecond, sim.Second), tick) }
	for i := 0; i < depth; i++ {
		k.After(k.UniformDuration(0, sim.Second), tick)
	}
	k.Run(sim.Second) // warm the pool and heap
	// Each timer fires about twice a virtual second.
	horizon := sim.Duration(float64(events) / batches / (2 * float64(depth)) * float64(sim.Second))
	if horizon < sim.Millisecond {
		horizon = sim.Millisecond
	}
	var ns []float64
	var fired uint64
	mem := markMem()
	for b := 0; b < batches; b++ {
		before := k.Fired()
		t := time.Now()
		k.Run(k.Now() + horizon)
		d := time.Since(t)
		n := k.Fired() - before
		fired += n
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
	}
	mallocs, _ := mem.since()
	return stats.Median(ns), mallocs / float64(fired)
}

type sink struct{ n int }

func (s *sink) Deliver(*netsim.Message) { s.n++ }

// unicastProbe times SendUDP plus the drain of its delivery, one frame
// at a time.
func unicastProbe(seed int64, cfg netsim.Config, frames int) (nsPerFrame, allocsPerFrame float64) {
	k := sim.New(seed)
	nw := netsim.MustNew(k, cfg)
	nw.AddNode("a")
	nw.AddNode("b").SetEndpoint(&sink{})
	out := netsim.Outgoing{Kind: "ping", Counted: true}
	send := func(n int) {
		for i := 0; i < n; i++ {
			nw.SendUDP(0, 1, out)
			k.Run(k.Now() + sim.Second)
		}
	}
	send(64)
	var ns []float64
	mem := markMem()
	per := frames / batches
	for b := 0; b < batches; b++ {
		t := time.Now()
		send(per)
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(per))
	}
	mallocs, _ := mem.since()
	return stats.Median(ns), mallocs / float64(per*batches)
}

// multicastProbe times Multicast into a group of members plus the drain
// of the delivery walk, per delivered copy.
func multicastProbe(seed int64, members, sends int) float64 {
	k := sim.New(seed)
	nw := netsim.MustNew(k, netsim.DefaultConfig())
	ep := &sink{}
	for i := 0; i < members; i++ {
		n := nw.AddNode("")
		n.SetEndpoint(ep)
		nw.Join(n.ID, netsim.Group(1))
	}
	out := netsim.Outgoing{Kind: "announce", Counted: true}
	send := func(n int) {
		for i := 0; i < n; i++ {
			nw.Multicast(0, netsim.Group(1), out, 1)
			k.Run(k.Now() + sim.Second)
		}
	}
	send(4)
	var ns []float64
	per := sends / batches
	if per < 1 {
		per = 1
	}
	for b := 0; b < batches; b++ {
		before := ep.n
		t := time.Now()
		send(per)
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(ep.n-before))
	}
	return stats.Median(ns)
}
