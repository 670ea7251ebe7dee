package experiment

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The fabric: one run's topology on S ≥ 1 kernel/network pairs. Every
// run and every live driver goes through it; S = 1 is the single-kernel
// simulation, S > 1 partitions the population across shards that each
// advance on their own goroutine, coupled only through cross-shard
// frames exchanged at window barriers (conservative parallel
// discrete-event simulation — see netsim/shard.go for the transport
// half).
//
// One builder (buildTopology under a placement), one set of dynamics
// schedulers and one result assembly serve every S. A sharded fabric
// adds exactly four things, each selected by len(shards) > 1 and never
// by an option: the window/barrier loop below, per-shard seeds, the
// schedule-time resolution of Bisect partitions, and the round-robin
// arrival cursor (which at S = 1 always lands on the one shard). At
// S = 1 there is no window, goroutine, channel or router: RunUntil is
// the kernel's.
//
// Each shard draws from its own seeded RNG, so an S-shard run is
// deterministic in (seed, S) — but a different timeline from the
// 1-shard run of the same seed.
//
// The window protocol: all shards sit at a common clock T. The
// coordinator bounds the next window at W = min(M + L, target), where
// M is the earliest thing that can happen anywhere — the minimum of
// every shard's next local event and of every buffered cross frame's
// earliest possible arrival — and L is the cross-shard lookahead
// (minimum inter-shard delay). Each shard first ingests all frames
// buffered for it, then drains to W. Any frame sent during the window
// was sent at ≥ M, so it arrives at ≥ M + L ≥ W — never behind the
// clock of the shard that will ingest it at the next barrier. L > 0
// means W > T: every window makes progress.

// shardCmd is one window order from the coordinator: ingest these
// frames, then advance to until.
type shardCmd struct {
	frames []netsim.CrossFrame
	until  sim.Time
}

// shardRep is the shard's barrier reply: its next pending event.
type shardRep struct {
	next sim.Time
	ok   bool
}

// shardState is one shard of the fabric. Shards 1..S-1 own a worker
// goroutine; shard 0 runs inline on the coordinator's goroutine, so
// every protocol callback of the infrastructure shard — taps, gateway
// spawns, service changes — happens on the caller's goroutine at any S.
type shardState struct {
	sc     *Scenario // on its own kernel (sc.K) and network (sc.Net)
	router *netsim.ShardRouter
	cmds   chan shardCmd
	reps   chan shardRep
	// m, when set (Meter, before the first window — the command exchange
	// publishes the write to the worker), receives this shard's barrier
	// accounting: wall time running windows vs parked waiting for the
	// next command, cross-frame volume, kernel depth.
	m *obs.ShardMetrics
}

// window runs one barrier round on this shard — ingest the frames
// buffered for it, drain to until — and reports its next pending event.
func (st *shardState) window(frames []netsim.CrossFrame, until sim.Time) shardRep {
	var start time.Time
	if st.m != nil {
		start = time.Now()
		st.m.CrossIn.Add(uint64(len(frames)))
	}
	st.sc.Net.IngestCross(frames)
	next, ok := st.sc.K.RunWindow(until)
	if st.m != nil {
		st.m.Busy.Add(uint64(time.Since(start)))
		st.m.Events.Set(int64(st.sc.K.Fired()))
		st.m.Pending.Set(int64(st.sc.K.Pending()))
	}
	return shardRep{next: next, ok: ok}
}

// loop is a worker shard's goroutine: one window per command, parked at
// the barrier (its stall time) in between.
func (st *shardState) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	var parkedAt time.Time
	for cmd := range st.cmds {
		if st.m != nil && !parkedAt.IsZero() {
			st.m.Stall.Add(uint64(time.Since(parkedAt)))
		}
		st.reps <- st.window(cmd.frames, cmd.until)
		if st.m != nil {
			parkedAt = time.Now()
		}
	}
}

// Fabric is a built topology mid-flight. Its advancing API is the
// kernel's (RunUntil is resumable with non-decreasing targets), so the
// live Driver chases the wall clock across any S the same way. Not safe
// for concurrent use: one coordinator goroutine owns it, and between
// RunUntil calls every worker is parked at its barrier.
type Fabric struct {
	shards []*shardState
	// nextArrival is the global index of the next mid-run User arrival
	// (Poisson churn or flash crowd); arrival placement continues the
	// boot round-robin, shard = index mod S.
	nextArrival int

	// Window state, S > 1 only.
	pending   [][]netsim.CrossFrame // inbound frames per shard, staged at barriers
	next      []sim.Time            // each shard's next event, as of the last barrier
	nextOK    []bool
	lookahead sim.Time
	clock     sim.Time // the common time every shard has reached
	wg        sync.WaitGroup
	closed    bool
	// fm, when set, receives the window accounting (window count and
	// virtual widths) plus shard 0's busy/stall split.
	fm *obs.FabricMetrics
}

// validateShards checks a shard count and cross-link pair against a
// system — the fabric shapes that cannot be built.
func validateShards(sys System, shards int, cross netsim.CrossLink) error {
	if shards < 0 {
		return fmt.Errorf("experiment: shard count %d must not be negative", shards)
	}
	if shards < 2 {
		if cross != (netsim.CrossLink{}) {
			return fmt.Errorf("experiment: cross-shard link configured on an unsharded run (set Shards ≥ 2, or drop the cross-link options)")
		}
		return nil
	}
	// FRODO's wire protocol is pure UDP unicast/multicast, which the
	// cross-shard frame exchange carries faithfully; the Jini/UPnP
	// two-phase TCP abstraction binds connection state to one network.
	if sys != Frodo3P && sys != Frodo2P {
		return fmt.Errorf("experiment: sharded fabric supports the FRODO systems only (%v uses TCP connections, which cannot span shards)", sys)
	}
	if cross != (netsim.CrossLink{}) {
		return cross.Validate()
	}
	return nil
}

// BuildFabric builds a topology on max(shards, 1) shards for a caller
// that advances it itself (the live Driver). The zero CrossLink means
// netsim.DefaultCrossLink. Callers must Close the fabric.
func BuildFabric(sys System, topo Topology, opts Options, seed int64, shards int, cross netsim.CrossLink) (*Fabric, error) {
	if err := validateShards(sys, shards, cross); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return buildFabric(nil, sys, topo, opts, seed, shards, cross), nil
}

// buildFabric is BuildFabric on validated input. A single-shard fabric
// builds on the caller's workspace (kernel, network, cached scenario and
// the Fabric value itself are reused across runs); a sharded one builds
// its own per-shard storage and leaves the workspace untouched.
func buildFabric(ws *Workspace, sys System, topo Topology, opts Options, seed int64, shards int, cross netsim.CrossLink) *Fabric {
	n := max(shards, 1)
	if n > 1 {
		ws = nil
		if cross == (netsim.CrossLink{}) {
			cross = netsim.DefaultCrossLink()
		}
	}
	f := ws.fabric(n)
	for s, st := range f.shards {
		place := placement{shard: s, of: n}
		if n > 1 {
			place.router = netsim.NewShardRouter(n, cross)
			st.cmds, st.reps = make(chan shardCmd), make(chan shardRep)
		}
		k := ws.kernel(seed + int64(s)*1_000_000_007)
		st.sc, st.router = buildTopology(ws, sys, k, topo, opts, place), place.router
	}
	// Every shard's recorder (and scenario) points at the one measured
	// Manager, which lives on shard 0 — remote Users' cache writes carry
	// its global NodeID across the fabric.
	sc0 := f.shards[0].sc
	for _, st := range f.shards {
		st.sc.ManagerID = sc0.ManagerID
		st.sc.rec.manager = sc0.ManagerID
	}
	f.nextArrival = sc0.Topo.Users
	if n > 1 {
		f.lookahead = sim.Time(cross.MinDelay)
		f.pending = make([][]netsim.CrossFrame, n)
		f.next = make([]sim.Time, n)
		f.nextOK = make([]bool, n)
		// Seed the barrier state with each kernel's boot events, or the
		// first window would see an empty fabric and jump straight to its
		// target.
		for s, st := range f.shards {
			f.next[s], f.nextOK[s] = st.sc.K.NextEventTime()
		}
		for _, st := range f.shards[1:] {
			f.wg.Add(1)
			go st.loop(&f.wg)
		}
	}
	return f
}

// Scenario returns shard 0's scenario: the infrastructure shard, whose
// service changes, spawn hooks and taps run on the coordinator goroutine.
func (f *Fabric) Scenario() *Scenario { return f.shards[0].sc }

// ShardScenario returns shard s's scenario. Remote shards' scenarios
// carry only their User subset and recorder — their callbacks fire on
// the shard's worker goroutine, so anything attached to them (the
// per-shard oracles) must not share unsynchronized state across shards.
func (f *Fabric) ShardScenario(s int) *Scenario { return f.shards[s].sc }

// Shards reports the shard count.
func (f *Fabric) Shards() int { return len(f.shards) }

// Meter routes the fabric's telemetry into reg: per-shard frame metering
// tee'd in alongside any tracer already installed and, on a sharded
// fabric, the window and barrier accounting. Counters are atomics, safe
// to share one registry across the worker goroutines. Coordinator
// goroutine, before the first RunUntil — the workers are parked at
// their barriers and the first window's command exchange publishes the
// per-shard fields to them.
func (f *Fabric) Meter(reg *obs.Registry) {
	for s, st := range f.shards {
		st.sc.AddTracer(reg.NetTracer(s))
	}
	if len(f.shards) > 1 {
		f.fm = obs.NewFabricMetrics(reg, len(f.shards))
		for s, st := range f.shards {
			st.m = f.fm.Shards[s]
		}
	}
}

// Now reports the common time every shard has reached.
func (f *Fabric) Now() sim.Time {
	if len(f.shards) == 1 {
		return f.shards[0].sc.K.Now()
	}
	return f.clock
}

// Fired sums the fired-event counts of all shard kernels.
func (f *Fabric) Fired() uint64 {
	var total uint64
	for _, st := range f.shards {
		total += st.sc.K.Fired()
	}
	return total
}

// NextEventTime reports the earliest pending event anywhere in the
// fabric: local kernel events and the earliest possible arrival of
// still-buffered cross frames.
func (f *Fabric) NextEventTime() (sim.Time, bool) {
	if len(f.shards) == 1 {
		return f.shards[0].sc.K.NextEventTime()
	}
	var m sim.Time
	ok := false
	take := func(t sim.Time) {
		if !ok || t < m {
			m, ok = t, true
		}
	}
	for s := range f.shards {
		if f.nextOK[s] {
			take(f.next[s])
		}
	}
	for _, pend := range f.pending {
		for i := range pend {
			at := pend[i].SentAt + f.lookahead
			if at < f.clock {
				at = f.clock
			}
			take(at)
		}
	}
	return m, ok
}

// RunUntil advances every shard to target — through conservative
// lookahead windows when there is more than one. Resumable: consecutive
// calls with non-decreasing targets continue the same run, matching
// Kernel.RunUntil's contract.
func (f *Fabric) RunUntil(target sim.Time) {
	if len(f.shards) == 1 {
		f.shards[0].sc.K.RunUntil(target)
		return
	}
	if f.closed {
		panic("experiment: RunUntil on a closed Fabric")
	}
	for f.clock < target {
		// The window bound: nothing anywhere can happen before m.
		m := target
		if at, ok := f.NextEventTime(); ok && at < m {
			m = at
		}
		w := m + f.lookahead
		if w > target {
			w = target
		}
		if f.fm != nil {
			f.fm.Windows.Inc()
			// Window width is virtual time; sim durations and wall
			// durations share int64-nanosecond units.
			f.fm.WindowWidth.Observe(time.Duration(w - f.clock))
		}
		// Workers: ingest, drain, reply. The coordinator keeps ownership
		// of pending[s] storage but must not touch it until s replies.
		for s := 1; s < len(f.shards); s++ {
			f.shards[s].cmds <- shardCmd{frames: f.pending[s], until: w}
		}
		// Shard 0 runs inline, so its protocol callbacks stay on this
		// goroutine; its stall is the wait for the slowest worker.
		rep := f.shards[0].window(f.pending[0], w)
		waitFrom := time.Now()
		for s := range f.shards {
			if s > 0 {
				rep = <-f.shards[s].reps
			}
			f.next[s], f.nextOK[s] = rep.next, rep.ok
			f.pending[s] = f.pending[s][:0]
		}
		if f.fm != nil {
			f.fm.Shards[0].Stall.Add(uint64(time.Since(waitFrom)))
		}
		// All shards are parked at w: collect this window's cross-shard
		// sends in deterministic order — by source shard, and within a
		// source in send order.
		for s := range f.shards {
			for dest := range f.shards {
				if dest == s {
					continue
				}
				before := len(f.pending[dest])
				f.pending[dest] = f.shards[s].router.Drain(dest, f.pending[dest])
				if f.fm != nil {
					f.fm.Shards[s].CrossOut.Add(uint64(len(f.pending[dest]) - before))
				}
			}
		}
		f.clock = w
	}
}

// Close stops the worker goroutines. Idempotent; the fabric is dead
// afterwards (read-only accessors keep working).
func (f *Fabric) Close() {
	if f.closed {
		return
	}
	f.closed = true
	for _, st := range f.shards[1:] {
		close(st.cmds)
	}
	f.wg.Wait()
}

// allNodeIDs lists every node of the fabric, concatenated in shard
// order — the failure planners' view of the whole boot population.
func (f *Fabric) allNodeIDs() []netsim.NodeID {
	n := 0
	for _, st := range f.shards {
		n += st.sc.Net.Nodes()
	}
	ids := make([]netsim.NodeID, 0, n)
	for _, st := range f.shards {
		ids = st.sc.appendNodeIDs(ids)
	}
	return ids
}

// scheduleFailures arms a fabric-wide outage plan, handing each outage
// to the network owning its node.
func (f *Fabric) scheduleFailures(plan []netsim.InterfaceFailure) {
	for _, fl := range plan {
		f.shards[fl.Node.Shard()].sc.Net.ScheduleFailure(fl)
	}
}

// schedulePartitions arms the identical split on every shard's kernel,
// so split and heal land at the same virtual instant fabric-wide. One
// network resolves a Bisect at activation over its then-current table;
// S networks cannot agree on that, so a sharded fabric resolves it here,
// at schedule time, into an explicit global SideB — the upper half of
// the boot population in shard order (churn arrivals land on side A,
// like any post-activation attach). Out-of-shard SideB members go to
// each network's remote-side ledger, so cross-shard sends drop
// split-crossing frames at the sender.
func (f *Fabric) schedulePartitions(ps []netsim.Partition) {
	for _, p := range ps {
		if len(f.shards) > 1 && len(p.SideB) == 0 && p.Bisect {
			all := f.allNodeIDs()
			p.SideB = all[len(all)/2:]
			p.Bisect = false
		}
		for _, st := range f.shards {
			st.sc.Net.SchedulePartition(p)
		}
	}
}

// scheduleChanges draws the service change time(s) C ~ U[ChangeMin,
// ChangeMax] from shard 0's kernel — the measured Manager's — and arms
// them there. With multiple changes (the frequent-update extension),
// consistency is measured against the final version, from the last
// change time, which is returned.
func (f *Fabric) scheduleChanges(p Params) sim.Time {
	sc0 := f.shards[0].sc
	n := max(p.Changes, 1)
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = sc0.K.UniformTime(p.ChangeMin, p.ChangeMax)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, st := range f.shards {
		st.sc.TargetVersion, st.sc.rec.target = uint64(1+n), uint64(1+n)
	}
	for _, at := range times {
		sc0.K.At(at, sc0.FireChange)
	}
	return times[n-1]
}

// result assembles the run's observations once every shard has reached
// the deadline: per-User outcomes, and the update effort summed across
// all shards' counters.
func (f *Fabric) result(spec RunSpec, changeAt, deadline sim.Time) metrics.RunResult {
	res := metrics.RunResult{
		Lambda:   spec.Lambda,
		Seed:     spec.Seed,
		ChangeAt: changeAt,
		Deadline: deadline,
	}
	allDone := changeAt
	allReached := true
	outcome := func(sc *Scenario, uid netsim.NodeID) {
		at, ok := sc.ReachedAt(uid)
		excluded := !ok && sc.AbsentAtEnd(uid)
		res.Users = append(res.Users, metrics.UserOutcome{User: uid, Reached: ok, At: at, Excluded: excluded})
		if excluded {
			return // churned out: no U(i,j) sample, no effort-window claim
		}
		if !ok {
			allReached = false
		} else if at > allDone {
			allDone = at
		}
	}
	if !spec.Params.Churn.Enabled() && len(spec.Params.FlashCrowds) == 0 {
		// Static population: global boot order (User i is rank i/S on
		// shard i mod S).
		for i := 0; i < f.nextArrival; i++ {
			sc := f.shards[i%len(f.shards)].sc
			outcome(sc, sc.UserIDs[i/len(f.shards)])
		}
	} else {
		// Dynamic population: the boot order is gone (departures compact
		// each shard's UserIDs, arrivals append), so walk shards in order.
		// Permanently departed Users whose slots were recycled report the
		// outcomes frozen at departure, same exclusion rule.
		for _, st := range f.shards {
			for _, uid := range st.sc.UserIDs {
				outcome(st.sc, uid)
			}
			for _, o := range st.sc.RetiredOutcomes() {
				res.Users = append(res.Users, o)
				if !o.Excluded && o.At > allDone {
					allDone = o.At
				}
			}
		}
	}
	winEnd := deadline
	if allReached {
		winEnd = min(allDone+spec.Params.EffortPad, deadline)
	}
	for _, st := range f.shards {
		c := st.sc.Net.Counters()
		res.Effort += c.CountedInWindow(changeAt, winEnd)
		res.TotalDiscoverySends += c.DiscoverySends
		res.TotalTransport += c.TransportFrames
	}
	return res
}
