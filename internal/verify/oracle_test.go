package verify

import (
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The oracle regression golden: a seeded transient-partition scenario —
// long enough to outlast the FRODO Central timeout, so the minority side
// of the 2-party population elects a usurper Central that must demote
// after the heal — produces exactly zero violations for all five
// systems. Deterministic: same seed, same schedule, same count.
func TestOracleCleanOnPartitionScenario(t *testing.T) {
	params := experiment.DefaultParams()
	params.RunDuration = 12000 * sim.Second
	params.Partitions = []netsim.Partition{
		{Start: 3000 * sim.Second, Duration: 4000 * sim.Second, Bisect: true},
	}
	for _, sys := range experiment.Systems() {
		rep, res := ObserveRun(experiment.RunSpec{
			System: sys, Lambda: 0, Seed: 7, Params: params,
		}, DefaultOracleConfig(sys))
		if !rep.Clean() {
			t.Errorf("%v: %s", sys, rep)
			for _, v := range rep.Violations {
				t.Logf("%v: %v", sys, v)
			}
		}
		if cfg := DefaultOracleConfig(sys); cfg.ExpectCentral && rep.ProbesRun != 1 {
			t.Errorf("%v: %d heal probes ran, want 1", sys, rep.ProbesRun)
		}
		if res.ChangeAt == 0 {
			t.Errorf("%v: run produced no change", sys)
		}
	}
}

// The oracle stays clean under the full adversarial stack: Poisson churn
// (permanent departures exercising retired-silence), Gilbert–Elliott
// burst loss and Pareto heavy-tailed delay.
func TestOracleCleanUnderChurnAndBurstLoss(t *testing.T) {
	params := experiment.DefaultParams()
	params.Churn = experiment.Churn{Departures: 0.5, Arrivals: 3}
	opts := experiment.Options{Link: netsim.LinkConfig{
		Burst: netsim.BurstForAverage(0.10, 6),
		Delay: netsim.DelayConfig{Dist: netsim.DelayPareto},
	}}
	for _, sys := range []experiment.System{experiment.UPnP, experiment.Jini1, experiment.Frodo2P} {
		rep, _ := ObserveRun(experiment.RunSpec{
			System: sys, Lambda: 0, Seed: 11, Params: params, Opts: opts,
		}, DefaultOracleConfig(sys))
		if rep.Total != 0 {
			t.Errorf("%v: %s", sys, rep)
			for _, v := range rep.Violations {
				t.Logf("%v: %v", sys, v)
			}
		}
	}
}

// --- Deliberately-broken toy fixtures: each invariant must fire. ---

// A toy protocol claiming a version the Manager never published must
// trip the version bound.
func TestOracleFiresOnVersionBound(t *testing.T) {
	k := sim.New(1)
	const mgr netsim.NodeID = 0
	o := NewOracle(k, mgr, OracleConfig{})
	o.CacheUpdated(0, 3, mgr, 1) // initial discovery: fine
	o.NotePublished()            // manager publishes version 2
	o.CacheUpdated(0, 3, mgr, 2) // consistent: fine
	if rep := o.Report(); rep.Total != 0 {
		t.Fatalf("legal versions flagged: %s", rep)
	}
	o.CacheUpdated(0, 3, mgr, 5) // fabricated future version
	rep := o.Report()
	if rep.ByInvariant[InvVersionBound] != 1 || rep.Total != 1 {
		t.Errorf("version bound did not fire exactly once: %s", rep)
	}
	// A different manager's versions are out of scope.
	o.CacheUpdated(0, 3, 9, 50)
	if rep := o.Report(); rep.Total != 1 {
		t.Errorf("unscoped manager flagged: %s", rep)
	}
}

// A toy holder that acknowledges a renewal of a lease that expired long
// ago — a broken purge — must trip the lease-purge invariant.
func TestOracleFiresOnLeasePurge(t *testing.T) {
	k := sim.New(1)
	nw, err := netsim.New(k, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	user := nw.AddNode("user")
	holder := nw.AddNode("holder")
	sink := netsim.EndpointFunc(func(*netsim.Message) {})
	user.SetEndpoint(sink)
	holder.SetEndpoint(sink)
	o := NewOracle(k, netsim.NoNode, OracleConfig{PurgeSlack: 5 * sim.Second})
	nw.SetTracer(o)

	nw.SendUDP(user.ID, holder.ID, netsim.Outgoing{
		Packet: wire.Packet{Kind: wire.Subscribe, Manager: holder.ID, Lease: 10 * sim.Second}})
	k.Run(sim.Second)

	// A renewal inside the lease keeps everything legal.
	k.Run(5 * sim.Second)
	nw.SendUDP(user.ID, holder.ID, netsim.Outgoing{
		Packet: wire.Packet{Kind: wire.Renew, Manager: holder.ID, Lease: 10 * sim.Second}})
	k.Run(6 * sim.Second)
	nw.SendUDP(holder.ID, user.ID, netsim.Outgoing{
		Packet: wire.Packet{Kind: wire.RenewAck, Manager: holder.ID}})
	k.Run(7 * sim.Second)
	if rep := o.Report(); rep.Total != 0 {
		t.Fatalf("legal renewal flagged: %s", rep)
	}

	// The lease ran out at ~16s; an ack at 100s means it was never purged.
	k.Run(100 * sim.Second)
	nw.SendUDP(holder.ID, user.ID, netsim.Outgoing{
		Packet: wire.Packet{Kind: wire.RenewAck, Manager: holder.ID}})
	k.Run(101 * sim.Second)
	rep := o.Report()
	if rep.ByInvariant[InvLeasePurge] != 1 {
		t.Errorf("lease purge did not fire: %s", rep)
	}
}

// Two toy nodes both claiming the Central role past the heal probe — a
// split brain that never resolves — must trip single-central; so must a
// population with no Central at all.
func TestOracleFiresOnSingleCentral(t *testing.T) {
	splitBrain := func(claimants int) OracleReport {
		k := sim.New(1)
		nw, err := netsim.New(k, netsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sink := netsim.EndpointFunc(func(*netsim.Message) {})
		for i := 0; i < 3; i++ {
			nw.AddNode("").SetEndpoint(sink)
		}
		o := NewOracle(k, netsim.NoNode, OracleConfig{
			ExpectCentral: true,
			HealSlack:     100 * sim.Second,
			CentralWindow: 50 * sim.Second,
			Partitions: []netsim.Partition{
				{Start: 10 * sim.Second, Duration: 10 * sim.Second, SideB: []netsim.NodeID{1}},
			},
		})
		nw.SetTracer(o)
		for c := 0; c < claimants; c++ {
			from := netsim.NodeID(c)
			for at := sim.Time(0); at < 200*sim.Second; at += 30 * sim.Second {
				at := at
				k.At(at+sim.Time(c)*sim.Millisecond, func() {
					nw.SendUDP(from, 2, netsim.Outgoing{
						Packet: wire.Packet{Kind: wire.Announce, Role: wire.RoleRegistry, N: 10}})
				})
			}
		}
		k.Run(200 * sim.Second)
		return o.Report()
	}
	if rep := splitBrain(2); rep.ByInvariant[InvSingleCentral] != 1 {
		t.Errorf("persistent split-brain did not fire: %s", rep)
	}
	if rep := splitBrain(0); rep.ByInvariant[InvSingleCentral] != 1 {
		t.Errorf("missing Central did not fire: %s", rep)
	}
	if rep := splitBrain(1); rep.ByInvariant[InvSingleCentral] != 0 {
		t.Errorf("healthy single Central flagged: %s", rep)
	}
}

// A split brain names one node however the claim ledger is walked: the
// freshest live claimant, the lowest NodeID among equally fresh ones.
// Fifty fresh oracles fed the same claims must all agree.
func TestSplitBrainNamesFreshestClaimant(t *testing.T) {
	claims := []struct {
		id netsim.NodeID
		at sim.Time
	}{{9, 20 * sim.Second}, {7, 30 * sim.Second}, {3, 30 * sim.Second}, {5, 25 * sim.Second}, {4, 10 * sim.Second}}
	for i := 0; i < 50; i++ {
		k := sim.New(1)
		o := NewOracle(k, netsim.NoNode, OracleConfig{
			ExpectCentral: true,
			HealSlack:     30 * sim.Second,
			CentralWindow: 50 * sim.Second,
			Partitions:    []netsim.Partition{{Start: 0, Duration: 10 * sim.Second, SideB: []netsim.NodeID{1}}},
		})
		for _, c := range claims {
			o.MessageDelivered(c.at, &netsim.Message{From: c.id, To: netsim.NoNode,
				Packet: wire.Packet{Kind: wire.Announce, Role: wire.RoleRegistry}})
		}
		k.Run(60 * sim.Second)
		if v := o.Report().Violations; len(v) != 1 || v[0].Invariant != InvSingleCentral || v[0].Node != 3 {
			t.Fatalf("oracle %d: violations %v, want one single-central naming node 3", i, v)
		}
	}
}

// A zombie timer transmitting from a retired node slot must trip
// retired-silence; frames within the grace window (the pending
// redundancy train) must not.
func TestOracleFiresOnRetiredSilence(t *testing.T) {
	k := sim.New(1)
	nw, err := netsim.New(k, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	a.SetEndpoint(netsim.EndpointFunc(func(*netsim.Message) {}))
	o := NewOracle(k, netsim.NoNode, OracleConfig{RetireGrace: 10 * sim.Second})
	nw.SetTracer(o)

	nw.Retire(b.ID)
	// Inside the grace window: the tail of a redundancy train, tolerated.
	k.Run(5 * sim.Second)
	nw.SendUDP(b.ID, a.ID, netsim.Outgoing{Kind: "straggler"})
	if rep := o.Report(); rep.Total != 0 {
		t.Fatalf("grace-window frame flagged: %s", rep)
	}
	// Beyond the grace: a zombie.
	k.Run(60 * sim.Second)
	nw.SendUDP(b.ID, a.ID, netsim.Outgoing{Kind: "zombie"})
	rep := o.Report()
	if rep.ByInvariant[InvRetiredSilence] != 1 {
		t.Errorf("retired silence did not fire: %s", rep)
	}
	// Slot recycled: the new tenant transmits freely.
	c := nw.AddNode("c")
	nw.SendUDP(c.ID, a.ID, netsim.Outgoing{Kind: "fresh"})
	k.Run(61 * sim.Second)
	if rep := o.Report(); rep.ByInvariant[InvRetiredSilence] != 1 {
		t.Errorf("recycled tenant flagged: %s", rep)
	}
}

// A heal probe scheduled past the run deadline never fires; the report
// must expose that instead of reading as a clean audit.
func TestOracleReportsUnranProbes(t *testing.T) {
	params := experiment.DefaultParams() // 5400s: too short for heal+HealSlack
	params.Partitions = []netsim.Partition{
		{Start: 2000 * sim.Second, Duration: 1000 * sim.Second, Bisect: true},
	}
	rep, _ := ObserveRun(experiment.RunSpec{
		System: experiment.Frodo2P, Lambda: 0, Seed: 3, Params: params,
	}, DefaultOracleConfig(experiment.Frodo2P))
	if rep.ProbesScheduled != 1 || rep.ProbesRun != 0 {
		t.Fatalf("probes scheduled/run = %d/%d, want 1/0", rep.ProbesScheduled, rep.ProbesRun)
	}
	if rep.Clean() {
		t.Error("report with an un-run probe claims Clean")
	}
}

// The oracle must not disturb the run it observes: metrics with and
// without an attached oracle are identical.
func TestOracleObservationIsNonInvasive(t *testing.T) {
	params := experiment.DefaultParams()
	params.Partitions = []netsim.Partition{
		{Start: 1000 * sim.Second, Duration: 500 * sim.Second, Bisect: true},
	}
	spec := experiment.RunSpec{System: experiment.Frodo2P, Lambda: 0.3, Seed: 5, Params: params}
	plain := experiment.Run(spec)
	_, observed := ObserveRun(spec, DefaultOracleConfig(experiment.Frodo2P))
	if plain.Effort != observed.Effort || plain.ChangeAt != observed.ChangeAt ||
		len(plain.Users) != len(observed.Users) {
		t.Fatalf("oracle perturbed the run: %+v vs %+v", plain, observed)
	}
	for i := range plain.Users {
		if plain.Users[i] != observed.Users[i] {
			t.Fatalf("user outcome %d diverged: %+v vs %+v", i, plain.Users[i], observed.Users[i])
		}
	}
}

// A breach inside a fault-conditional bound is waived — visible in the
// report but not a violation; the same breach outside the bound counts.
func TestOracleWaivesBoundedBreaches(t *testing.T) {
	k := sim.New(1)
	nw, err := netsim.New(k, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	user := nw.AddNode("user")
	holder := nw.AddNode("holder")
	sink := netsim.EndpointFunc(func(*netsim.Message) {})
	user.SetEndpoint(sink)
	holder.SetEndpoint(sink)
	o := NewOracle(k, netsim.NoNode, OracleConfig{
		PurgeSlack: 5 * sim.Second,
		Bounds: []FaultBound{{Invariant: InvLeasePurge, Start: 50 * sim.Second,
			End: 200 * sim.Second, Reason: "scheduled outage"}},
	})
	nw.SetTracer(o)

	subscribe := func() {
		nw.SendUDP(user.ID, holder.ID, netsim.Outgoing{
			Packet: wire.Packet{Kind: wire.Subscribe, Manager: holder.ID, Lease: 10 * sim.Second}})
	}
	ack := func() {
		nw.SendUDP(holder.ID, user.ID, netsim.Outgoing{
			Packet: wire.Packet{Kind: wire.RenewAck, Manager: holder.ID}})
	}

	subscribe()
	k.Run(100 * sim.Second)
	ack() // ~90s past expiry, inside the bound: waived
	k.Run(101 * sim.Second)
	rep := o.Report()
	if rep.Total != 0 || rep.Waived != 1 {
		t.Fatalf("bounded breach: total=%d waived=%d, want 0/1 (%s)", rep.Total, rep.Waived, rep)
	}
	if len(rep.WaivedDetails) != 1 || !strings.Contains(rep.WaivedDetails[0].Detail, "scheduled outage") {
		t.Errorf("waiver reason missing from details: %v", rep.WaivedDetails)
	}
	if rep.MaxPurgeLate < 80*sim.Second {
		t.Errorf("MaxPurgeLate = %v, want the ~90s lateness recorded even for a waived breach", rep.MaxPurgeLate)
	}

	subscribe() // fresh lease at 101s, expires ~111s
	k.Run(300 * sim.Second)
	ack() // far past expiry AND past the bound's end: a real violation
	k.Run(301 * sim.Second)
	rep = o.Report()
	if rep.Total != 1 || rep.ByInvariant[InvLeasePurge] != 1 {
		t.Fatalf("out-of-bound breach not counted: %s", rep)
	}
	if rep.Waived != 1 {
		t.Errorf("waived = %d changed, want still 1", rep.Waived)
	}
}

// A Bye from the renewer retracts its leases at the holder: a later ack
// for that lease no longer proves a missed purge.
func TestOracleByeRetractsLease(t *testing.T) {
	k := sim.New(1)
	nw, err := netsim.New(k, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	user := nw.AddNode("user")
	holder := nw.AddNode("holder")
	sink := netsim.EndpointFunc(func(*netsim.Message) {})
	user.SetEndpoint(sink)
	holder.SetEndpoint(sink)
	o := NewOracle(k, netsim.NoNode, OracleConfig{PurgeSlack: 5 * sim.Second})
	nw.SetTracer(o)

	nw.SendUDP(user.ID, holder.ID, netsim.Outgoing{
		Packet: wire.Packet{Kind: wire.Subscribe, Manager: holder.ID, Lease: 10 * sim.Second}})
	k.Run(2 * sim.Second)
	nw.SendUDP(user.ID, holder.ID, netsim.Outgoing{
		Packet: wire.Packet{Kind: wire.Bye, Role: wire.RoleUser}})
	k.Run(100 * sim.Second)
	nw.SendUDP(holder.ID, user.ID, netsim.Outgoing{
		Packet: wire.Packet{Kind: wire.RenewAck, Manager: holder.ID}})
	k.Run(101 * sim.Second)
	if rep := o.Report(); rep.Total != 0 {
		t.Fatalf("ack after Bye flagged: %s", rep)
	}
}
