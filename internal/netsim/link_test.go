package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/wire"
)

// mustNew builds a network from a configuration the test knows is valid.
func mustNew(k *sim.Kernel, cfg Config) *Network {
	nw, err := New(k, cfg)
	if err != nil {
		panic(err)
	}
	return nw
}

// geSample drives one receiver's Gilbert–Elliott chain for n frames and
// returns the per-frame loss outcomes, by sending unicast frames on an
// otherwise idle network.
func geSample(seed int64, burst BurstConfig, n int) []bool {
	cfg := DefaultConfig()
	cfg.Link.Burst = burst
	k := sim.New(seed)
	nw := mustNew(k, cfg)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	delivered := false
	b.SetEndpoint(EndpointFunc(func(*Message) { delivered = true }))
	out := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		delivered = false
		nw.SendUDP(a.ID, b.ID, Outgoing{Kind: "x"})
		k.Run(k.Now() + sim.Second)
		out = append(out, !delivered)
	}
	return out
}

// Property (ISSUE 4 satellite): the empirical Gilbert–Elliott loss rate
// converges to the stationary rate π_B·BadLoss across seeds and chain
// parameters.
func TestQuickGELossConvergesToStationary(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in short mode")
	}
	f := func(seed int64, gtb, btg uint8) bool {
		// Map the fuzzed bytes into a well-conditioned chain: transition
		// probabilities in [0.02, 0.27] keep mixing fast enough that 30k
		// frames estimate the stationary rate tightly.
		burst := BurstConfig{
			GoodToBad: 0.02 + float64(gtb%250)/1000,
			BadToGood: 0.02 + float64(btg%250)/1000,
			BadLoss:   1,
		}
		const frames = 30000
		losses := 0
		for _, lost := range geSample(seed, burst, frames) {
			if lost {
				losses++
			}
		}
		want := burst.StationaryLoss()
		got := float64(losses) / frames
		// Tolerance: 5 standard errors of the i.i.d. estimator plus a
		// correlation allowance for the chain's burstiness.
		tol := 5*math.Sqrt(want*(1-want)/frames)*math.Sqrt(2/burst.BadToGood) + 0.01
		if math.Abs(got-want) > tol {
			t.Logf("seed %d chain %+v: loss %.4f, stationary %.4f, tol %.4f", seed, burst, got, want, tol)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property (ISSUE 4 satellite): with BadLoss=1 the burst-length
// distribution is geometric — mean 1/BadToGood and the fraction of
// length-1 bursts equal to BadToGood, within tolerance across seeds.
func TestQuickGEBurstLengthsGeometric(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in short mode")
	}
	f := func(seed int64, btg uint8) bool {
		burst := BurstConfig{
			GoodToBad: 0.05,
			BadToGood: 0.10 + float64(btg%150)/500, // [0.10, 0.40)
			BadLoss:   1,
		}
		const frames = 60000
		outcomes := geSample(seed, burst, frames)
		var bursts []int
		run := 0
		for _, lost := range outcomes {
			if lost {
				run++
				continue
			}
			if run > 0 {
				bursts = append(bursts, run)
				run = 0
			}
		}
		if len(bursts) < 300 {
			t.Logf("seed %d: only %d bursts, inconclusive sample", seed, len(bursts))
			return false
		}
		total, ones := 0, 0
		for _, b := range bursts {
			total += b
			if b == 1 {
				ones++
			}
		}
		mean := float64(total) / float64(len(bursts))
		wantMean := 1 / burst.BadToGood
		if math.Abs(mean-wantMean) > 0.15*wantMean+0.2 {
			t.Logf("seed %d: burst mean %.2f, want %.2f", seed, mean, wantMean)
			return false
		}
		// Geometric shape check beyond the mean: P(L=1) = BadToGood.
		p1 := float64(ones) / float64(len(bursts))
		if math.Abs(p1-burst.BadToGood) > 0.06 {
			t.Logf("seed %d: P(L=1) %.3f, want %.3f", seed, p1, burst.BadToGood)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// BurstForAverage must hit the requested stationary rate exactly.
func TestBurstForAverageStationary(t *testing.T) {
	for _, avg := range []float64{0.05, 0.2, 0.5} {
		for _, mean := range []float64{1, 4, 16} {
			b := BurstForAverage(avg, mean)
			if got := b.StationaryLoss(); math.Abs(got-avg) > 1e-12 {
				t.Errorf("BurstForAverage(%v,%v).StationaryLoss() = %v", avg, mean, got)
			}
			if !b.Enabled() {
				t.Errorf("BurstForAverage(%v,%v) not enabled", avg, mean)
			}
		}
	}
}

// delaySample draws n one-way delays through the real unicast path by
// timing deliveries on an idle network.
func delaySample(seed int64, cfg Config, n int) []sim.Duration {
	k := sim.New(seed)
	nw := mustNew(k, cfg)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	var arrival sim.Time
	b.SetEndpoint(EndpointFunc(func(*Message) { arrival = k.Now() }))
	out := make([]sim.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := k.Now()
		nw.SendUDP(a.ID, b.ID, Outgoing{Kind: "x"})
		k.Run(k.Now() + sim.Minute)
		out = append(out, sim.Duration(arrival-start))
	}
	return out
}

// The lognormal table must respect the floor and cap and put its median
// near the configured midpoint.
func TestDelayLognormalShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Link.Delay = DelayConfig{Dist: DelayLognormal, Sigma: 0.8}
	mid := (cfg.MinDelay + cfg.MaxDelay) / 2
	ds := delaySample(3, cfg, 4000)
	below := 0
	for _, d := range ds {
		if d < cfg.MinDelay || d > 100*cfg.MaxDelay {
			t.Fatalf("delay %v outside [floor, cap]", d)
		}
		if d < mid {
			below++
		}
	}
	frac := float64(below) / float64(len(ds))
	if frac < 0.40 || frac > 0.60 {
		t.Errorf("lognormal median off: %.2f of draws below midpoint, want ~0.5", frac)
	}
}

// The Pareto table must be heavy-tailed: its mean well above the uniform
// mean, with draws reaching far beyond MaxDelay yet never past the cap.
func TestDelayParetoHeavyTail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Link.Delay = DelayConfig{Dist: DelayPareto, Alpha: 1.2, Cap: 50 * cfg.MaxDelay}
	ds := delaySample(4, cfg, 4000)
	var sum float64
	tail := 0
	for _, d := range ds {
		if d < cfg.MinDelay || d > 50*cfg.MaxDelay {
			t.Fatalf("delay %v outside [floor, cap]", d)
		}
		sum += float64(d)
		if d > cfg.MaxDelay {
			tail++
		}
	}
	uniformMean := float64(cfg.MinDelay+cfg.MaxDelay) / 2
	if mean := sum / float64(len(ds)); mean < 1.5*uniformMean {
		t.Errorf("Pareto mean %.0f not heavy-tailed vs uniform mean %.0f", mean, uniformMean)
	}
	if tail == 0 {
		t.Error("no Pareto draw beyond MaxDelay")
	}
}

// Reordering must produce out-of-send-order deliveries on a single pair,
// which the base uniform spread alone cannot once frames are spaced
// beyond MaxDelay.
func TestReorderInvertsDeliveryOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Link.Reorder = ReorderConfig{Prob: 0.3, Extra: 10 * sim.Millisecond}
	k := sim.New(7)
	nw := mustNew(k, cfg)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	var got []int
	b.SetEndpoint(EndpointFunc(func(m *Message) { got = append(got, int(m.Packet.N)) }))
	for i := 0; i < 200; i++ {
		i := i
		// Space sends by MaxDelay so only the reorder extra can invert.
		k.At(sim.Time(i)*sim.Time(cfg.MaxDelay)*2, func() {
			nw.SendUDP(a.ID, b.ID, Outgoing{Kind: "seq", Packet: wire.Packet{N: uint64(i)}})
		})
	}
	k.Run(sim.Minute)
	inversions := 0
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("no delivery-order inversion under reordering")
	}
}

// A partition must drop cross-side frames both ways, leave same-side
// traffic untouched, and heal completely.
func TestPartitionBlocksCrossTrafficAndHeals(t *testing.T) {
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	eps := make([]*countingEndpoint, 4)
	for i := range eps {
		eps[i] = &countingEndpoint{}
		nw.AddNode("").SetEndpoint(eps[i])
	}
	nw.SchedulePartition(Partition{Start: 10 * sim.Second, Duration: 10 * sim.Second,
		SideB: []NodeID{2, 3}})

	send := func(from, to NodeID) { nw.SendUDP(from, to, Outgoing{Kind: "x"}) }
	// Before the split: everything flows.
	send(0, 2)
	k.Run(5 * sim.Second)
	if eps[2].n != 1 {
		t.Fatal("pre-partition frame lost")
	}
	// During the split: cross-side drops both directions, same-side flows.
	k.Run(11 * sim.Second)
	send(0, 2)
	send(3, 1)
	send(0, 1)
	send(2, 3)
	k.Run(15 * sim.Second)
	if eps[2].n != 1 || eps[1].n != 1 || eps[3].n != 1 {
		t.Fatalf("partition semantics wrong: deliveries %d/%d/%d", eps[1].n, eps[2].n, eps[3].n)
	}
	if nw.Counters().Drops != 2 {
		t.Errorf("drops = %d, want 2 cross-side drops", nw.Counters().Drops)
	}
	// After the heal: cross-side flows again.
	k.Run(21 * sim.Second)
	send(0, 2)
	send(3, 1)
	k.Run(25 * sim.Second)
	if eps[2].n != 2 || eps[1].n != 2 {
		t.Error("traffic still blocked after heal")
	}
}

// Bisect splits the node table in half at activation time, and composes
// with a planned interface failure on one of the nodes.
func TestPartitionBisectComposesWithFailures(t *testing.T) {
	k := sim.New(2)
	nw := mustNew(k, DefaultConfig())
	eps := make([]*countingEndpoint, 4)
	for i := range eps {
		eps[i] = &countingEndpoint{}
		nw.AddNode("").SetEndpoint(eps[i])
	}
	nw.SchedulePartition(Partition{Start: 10 * sim.Second, Duration: 20 * sim.Second, Bisect: true})
	nw.ScheduleFailure(InterfaceFailure{Node: 1, Mode: FailRx,
		Start: 5 * sim.Second, Duration: 10 * sim.Second})

	k.Run(11 * sim.Second)
	// Bisect put nodes 2,3 on side B: 0→3 is cross-side; 0→1 is same-side
	// but node 1's Rx is down until 15s.
	nw.SendUDP(0, 3, Outgoing{Kind: "x"})
	nw.SendUDP(0, 1, Outgoing{Kind: "x"})
	nw.SendUDP(2, 3, Outgoing{Kind: "x"})
	k.Run(14 * sim.Second)
	if eps[3].n != 1 || eps[1].n != 0 {
		t.Fatalf("deliveries %d/%d; want same-side B 1, Rx-down 0", eps[3].n, eps[1].n)
	}
	// Failure recovered, partition still up: same-side works again.
	k.Run(16 * sim.Second)
	nw.SendUDP(0, 1, Outgoing{Kind: "x"})
	k.Run(20 * sim.Second)
	if eps[1].n != 1 {
		t.Error("same-side frame blocked after interface recovery")
	}
}

// Overlapping partitions are a planning bug and must be rejected.
func TestPartitionOverlapPanics(t *testing.T) {
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	nw.AddNode("")
	nw.AddNode("")
	nw.SchedulePartition(Partition{Start: 10 * sim.Second, Duration: 10 * sim.Second, Bisect: true})
	defer func() {
		if recover() == nil {
			t.Error("overlapping partition did not panic")
		}
	}()
	nw.SchedulePartition(Partition{Start: 15 * sim.Second, Duration: 10 * sim.Second, Bisect: true})
}

// Config validation is consolidated: the constructor reports errors
// instead of panicking, and catches every invalid knob.
func TestConfigValidation(t *testing.T) {
	k := sim.New(1)
	bad := []func(*Config){
		func(c *Config) { c.MinDelay, c.MaxDelay = c.MaxDelay, c.MinDelay },
		func(c *Config) { c.Loss = 1.5 },
		func(c *Config) { c.Loss = -0.1 },
		func(c *Config) {
			c.Loss = 0.1
			c.Link.Burst = BurstForAverage(0.1, 4) // both loss models
		},
		func(c *Config) { c.Link.Burst = BurstConfig{GoodToBad: 2, BadToGood: 0.5, BadLoss: 1} },
		func(c *Config) { c.Link.Burst = BurstConfig{GoodToBad: 0.5, BadLoss: 1} }, // bursts never end
		func(c *Config) { c.Link.Delay = DelayConfig{Dist: DelayDist(99)} },
		func(c *Config) { c.Link.Delay = DelayConfig{Dist: DelayPareto, Alpha: -1} },
		func(c *Config) { c.Link.Reorder = ReorderConfig{Prob: 1.5} },
		func(c *Config) { c.Link.Reorder = ReorderConfig{Prob: 0.5, Extra: -sim.Second} },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(k, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(k, DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// Reset and Rearm keep conditioned state isolated between runs: a fresh
// run on a recycled network must replay a fresh network bit for bit,
// burst chains, delay tables and partitions included.
func TestLinkStateResetDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Link.Burst = BurstForAverage(0.2, 6)
	cfg.Link.Delay = DelayConfig{Dist: DelayPareto}
	runOnce := func(k *sim.Kernel, nw *Network) (int, int) {
		ep := &countingEndpoint{}
		for i := 0; i < 6; i++ {
			n := nw.AddNode("")
			n.SetEndpoint(ep)
			nw.Join(n.ID, Group(1))
		}
		nw.SchedulePartition(Partition{Start: 5 * sim.Second, Duration: 5 * sim.Second, Bisect: true})
		for i := 0; i < 40; i++ {
			i := i
			k.At(sim.Time(i)*sim.Time(300*sim.Millisecond), func() {
				nw.Multicast(0, Group(1), Outgoing{Kind: "a"}, 2)
				nw.SendUDP(1, 2, Outgoing{Kind: "b"})
			})
		}
		k.Run(sim.Minute)
		return ep.n, nw.Counters().Drops
	}
	kA := sim.New(9)
	a1, a2 := runOnce(kA, mustNew(kA, cfg))

	kB := sim.New(11)
	nwB := mustNew(kB, cfg)
	runOnce(kB, nwB)
	kB.Reset(9)
	nwB.Reset(kB, cfg)
	b1, b2 := runOnce(kB, nwB)
	if a1 != b1 || a2 != b2 {
		t.Fatalf("conditioned reset diverged: fresh (%d,%d) vs reused (%d,%d)", a1, a2, b1, b2)
	}
}

// The default LinkConfig must be a behavioral no-op: identical RNG
// consumption and identical outcomes to the unconditioned network.
func TestZeroLinkConfigMatchesUnconditioned(t *testing.T) {
	run := func(cfg Config) (int, int, sim.Time) {
		k := sim.New(21)
		nw := mustNew(k, cfg)
		ep := &countingEndpoint{}
		var last sim.Time
		for i := 0; i < 8; i++ {
			n := nw.AddNode("")
			n.SetEndpoint(EndpointFunc(func(*Message) { ep.n++; last = k.Now() }))
			nw.Join(n.ID, Group(1))
		}
		for i := 0; i < 30; i++ {
			nw.Multicast(0, Group(1), Outgoing{Kind: "a"}, 3)
			nw.SendUDP(1, 2, Outgoing{Kind: "b"})
		}
		k.Run(sim.Minute)
		return ep.n, nw.Counters().Drops, last
	}
	lossy := DefaultConfig()
	lossy.Loss = 0.25
	a1, a2, a3 := run(lossy)
	lossy.Link = LinkConfig{} // explicit zero — must change nothing
	b1, b2, b3 := run(lossy)
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("zero LinkConfig changed behavior: (%d,%d,%v) vs (%d,%d,%v)", a1, a2, a3, b1, b2, b3)
	}
}

// Back-to-back partitions: when one window ends exactly where the next
// begins, the stale heal must not deactivate the successor, regardless
// of scheduling order.
func TestPartitionBackToBackWindows(t *testing.T) {
	k := sim.New(1)
	nw := mustNew(k, DefaultConfig())
	for i := 0; i < 4; i++ {
		nw.AddNode("").SetEndpoint(&countingEndpoint{})
	}
	// Scheduled later-window-first: at t=100s the second window's
	// activation fires before the first window's heal.
	nw.SchedulePartition(Partition{Start: 100 * sim.Second, Duration: 50 * sim.Second, SideB: []NodeID{3}})
	nw.SchedulePartition(Partition{Start: 50 * sim.Second, Duration: 50 * sim.Second, SideB: []NodeID{2}})

	k.Run(120 * sim.Second)
	if !nw.partitioned(0, 3) {
		t.Error("second window inactive after the first window's heal")
	}
	if nw.partitioned(0, 2) {
		t.Error("first window's side still isolated in the second window")
	}
	k.Run(151 * sim.Second)
	if nw.partitioned(0, 3) {
		t.Error("second window did not heal")
	}
}

// BurstForAverage rejects infeasible (avg, meanBurst) pairs instead of
// producing an out-of-range chain.
func TestBurstForAverageInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("infeasible BurstForAverage did not panic")
		}
	}()
	BurstForAverage(0.6, 1) // needs meanBurst ≥ 1.5
}
