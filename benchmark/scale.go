package main

import (
	"math"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"repro/internal/discovery"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/verify"
)

// staticSpec is one FRODO 2-party run at lambda=0 with n Users and the
// paper's 5400s duration: nothing fails, every User must be reached.
//
// Users that boot before the Central election has settled each multicast
// a search to all N: that race is the O(N^2) boot traffic this workload
// exists to price. With the paper's 1s boot jitter the length of the
// race, and with it a run's event count, swings by a third between
// seeds; 1ms of jitter keeps the race and pins its length (events within
// 2% across seeds), so the wall time measures the code, not the seed.
func staticSpec(n int, seed int64) experiment.RunSpec {
	p := experiment.DefaultParams()
	p.Runs, p.Lambdas = 1, []float64{0}
	p.Topology = experiment.Topology{Users: n, BootJitter: sim.Millisecond}
	return experiment.RunSpec{System: experiment.Frodo2P, Seed: seed, Params: p}
}

// dynamicsSpec puts the population of staticSpec in motion: Poisson
// churn, one flash crowd, a bisect partition and two failing racks.
func dynamicsSpec(n int, seed int64) experiment.RunSpec {
	spec := staticSpec(n, seed)
	p := &spec.Params
	p.Churn = experiment.Churn{Departures: 0.3, MeanAbsence: 600 * sim.Second, Arrivals: float64(n) / 20}
	p.FlashCrowds = []experiment.FlashCrowd{{At: 1500 * sim.Second, Users: n / 10, Window: 30 * sim.Second}}
	// The partition heals 4300s before the deadline: the oracle's
	// single-Central probe fires HealSlack (4260s) after the heal and a
	// probe that never runs leaves the report unclean.
	p.Partitions = []netsim.Partition{{Start: 800 * sim.Second, Duration: 300 * sim.Second, Bisect: true}}
	p.RackFailures = netsim.RackPlanConfig{Racks: 10, Fail: 2, WindowStart: 100 * sim.Second,
		WindowEnd: 2400 * sim.Second, Duration: 300 * sim.Second}
	return spec
}

// coldBuild times BuildTopology for spec's shape on a fresh kernel: the
// set-up a first run pays before any event fires.
func coldBuild(tr *tracer, parent int, spec experiment.RunSpec) time.Duration {
	id := tr.begin("experiment.BuildTopology", parent, 0, 0)
	t := time.Now()
	experiment.BuildTopology(spec.System, sim.New(spec.Seed), spec.Params.Topology, spec.Opts)
	d := time.Since(t)
	tr.end(id)
	return d
}

// userOutcomes counts the Users a run measured (op = non-excluded User)
// and how many of them the update did not reach by the deadline.
func userOutcomes(r metrics.RunResult) (measured, unreached int) {
	for _, u := range r.Users {
		if u.Excluded {
			continue
		}
		measured++
		if !u.Reached {
			unreached++
		}
	}
	return measured, unreached
}

// scaleRun is one timed run of a scale workload.
type scaleRun struct {
	spec experiment.RunSpec
	// sameAs, when ≥ 0, names the earlier run of the pass this one
	// replays: the two results must be identical.
	sameAs int
	// base marks the runs whose wall time feeds op_p50_us.
	base bool
}

// runScale is the untraced pass shared by both scale workloads: set-up
// is a cold build of the base shape; the measured phase repeats the
// pass's run list until the time is up. Each pass holds one Workspace,
// as a sweep worker would: its first run builds cold, a replay rearms, a
// larger shape rebuilds. A fresh one per pass keeps the per-op
// allocations the same however many passes fit.
func runScale(cfg runConfig, name string, pass func(i int) []scaleRun, exec func(*experiment.Workspace, experiment.RunSpec) metrics.RunResult, res *result) (unreached int) {
	var setups []float64
	for rep := 0; rep < 3*cfg.sz.setupReps; rep++ {
		runtime.GC() // a collection landing inside a 40ms build would be a third of it
		setups = append(setups, coldBuild(nil, -1, pass(0)[0].spec).Seconds())
	}
	res.setN("setup_s", stats.Median(setups), len(setups))

	fp := newFingerprint()
	var baseUS []float64
	var busy time.Duration
	mem := markMem()
	for i := 0; !timeUp(busy, i, cfg.seconds); i++ {
		runs := pass(i)
		results := make([]metrics.RunResult, len(runs))
		ws := experiment.NewWorkspace()
		for j, run := range runs {
			t := time.Now()
			results[j] = exec(ws, run.spec)
			d := time.Since(t)
			busy += d
			if run.base {
				baseUS = append(baseUS, micros(d))
			}
			measured, missed := userOutcomes(results[j])
			res.attempted += measured
			unreached += missed
			if run.sameAs >= 0 && !reflect.DeepEqual(results[j], results[run.sameAs]) {
				res.problemf("%s: replaying seed %d gave a different RunResult", name, run.spec.Seed)
			}
			fp.add(results[j])
		}
	}
	mallocs, bytes := mem.since()
	ops := float64(res.attempted)
	res.setN("ops_per_s", ops/busy.Seconds(), res.attempted)
	res.setN("op_p50_us", stats.Median(baseUS), len(baseUS))
	res.set("allocs_per_op", mallocs/ops)
	res.set("alloc_kb_per_op", bytes/1024/ops)
	res.notef("op = one simulated User; op_p50_us = one N=%d run; sim_fingerprint %.0f",
		pass(0)[0].spec.Params.Topology.Users, fp.value())
	return unreached
}

func runScaleStatic(cfg runConfig, tr *tracer) *result {
	if cfg.trace {
		return traceScaleStatic(cfg, tr)
	}
	res := newResult(endToEnd)
	pass := func(i int) []scaleRun {
		a := staticSpec(cfg.sz.staticN, deriveSeed(cfg.seed, streamStatic, 2*i))
		b := staticSpec(cfg.sz.staticBigN, deriveSeed(cfg.seed, streamStatic, 2*i+1))
		return []scaleRun{{a, -1, true}, {a, 0, true}, {b, -1, false}}
	}
	// Nothing fails and nobody leaves, so an unreached User is a wrong
	// output: a failed op.
	res.failed = runScale(cfg, "scale_static", pass, experiment.RunInto, res)
	if res.failed > 0 {
		res.problemf("scale_static: %d of %d Users not reached on a static, failure-free population", res.failed, res.attempted)
	}
	return res
}

func runScaleDynamics(cfg runConfig, tr *tracer) *result {
	if cfg.trace {
		return traceScaleDynamics(cfg, tr)
	}
	res := newResult(endToEnd)
	violations := 0
	pass := func(i int) []scaleRun {
		var runs []scaleRun
		for s := 0; s < cfg.sz.dynSeeds; s++ {
			seed := deriveSeed(cfg.seed, streamDynamics, cfg.sz.dynSeeds*i+s)
			runs = append(runs, scaleRun{dynamicsSpec(cfg.sz.dynN, seed), -1, true})
		}
		return append(runs, scaleRun{runs[0].spec, 0, true})
	}
	unreached := runScale(cfg, "scale_dynamics", pass, func(ws *experiment.Workspace, s experiment.RunSpec) metrics.RunResult {
		rep, r := observeInto(ws, s)
		violations += rep.Total
		if rep.ProbesRun != rep.ProbesScheduled {
			res.problemf("scale_dynamics: %d of %d heal probes ran", rep.ProbesRun, rep.ProbesScheduled)
		}
		return r
	}, res)
	// The paper-faithful protocol does break invariants under these
	// faults (the hardening layer exists for that); the count is a
	// property of the seed, reported and not judged.
	res.notef("oracle violations over all runs: %d", violations)
	checkEffectiveness(res, unreached)
	return res
}

// observeInto is verify.ObserveRun on the caller's Workspace: the
// default oracle for the system, attached through RunSpec.Attach, heal
// probes following the run's own partitions. ObserveRun itself draws a
// pooled Workspace, and whether the pool still holds one is up to the
// garbage collector, which would make a run's allocations a coin flip.
func observeInto(ws *experiment.Workspace, spec experiment.RunSpec) (verify.OracleReport, metrics.RunResult) {
	cfg := verify.DefaultOracleConfig(spec.System)
	cfg.Partitions = spec.Params.Partitions
	var o *verify.Oracle
	spec.Attach = func(sc *experiment.Scenario) { o = verify.AttachOracle(sc, cfg) }
	r := experiment.RunInto(ws, spec)
	return o.Report(), r
}

// checkEffectiveness judges the Users a dynamic run left unreached. A
// User who joins or returns moments before the deadline is legitimately
// stale when it strikes, so a few are the simulated system's outcome
// (the paper's Update Effectiveness), not a failed op; more than one in
// a hundred means the protocol no longer copes with churn.
func checkEffectiveness(res *result, unreached int) {
	res.notef("Users unreached at the deadline: %d of %d (Update Effectiveness %.5f)",
		unreached, res.attempted, 1-float64(unreached)/float64(res.attempted))
	if 100*unreached > res.attempted {
		res.failed = unreached
		res.problemf("scale_dynamics: %d of %d Users unreached, more than 1%%", unreached, res.attempted)
	}
}

// sumSeries adds a counter family over shards 0..shards-1.
func sumSeries(reg *obs.Registry, name string, shards int) float64 {
	var sum float64
	for s := 0; s < shards; s++ {
		sum += float64(reg.Counter(name, "shard", strconv.Itoa(s)).Load())
	}
	return sum
}

// tracedRun executes spec on ws inside an experiment.RunInto span.
func tracedRun(tr *tracer, parent int, op int64, ws *experiment.Workspace, spec experiment.RunSpec) (metrics.RunResult, time.Duration) {
	id := tr.begin("experiment.RunInto", parent, op, 0)
	t := time.Now()
	r := experiment.RunInto(ws, spec)
	d := time.Since(t)
	tr.end(id)
	return r, d
}

func traceScaleStatic(cfg runConfig, tr *tracer) *result {
	res := newResult(perLayer)
	root := tr.begin("benchmark.scale_static", -1, 0, 0)
	n, big := cfg.sz.staticN, cfg.sz.staticBigN
	seed := deriveSeed(cfg.seed, streamStatic, 0)
	spec := staticSpec(n, seed)

	// Harness costs: a cold build, and what a second run on the same
	// Workspace pays to rearm (a 1s run fires almost no events).
	res.set("experiment.build_us_per_node", micros(coldBuild(tr, root, spec))/float64(n))
	ws := experiment.NewWorkspace()
	short := spec
	short.Params.RunDuration = sim.Second
	short.Params.ChangeMin, short.Params.ChangeMax = sim.Second/4, sim.Second/2
	tracedRun(tr, root, 0, ws, short)
	_, rearm := tracedRun(tr, root, 0, ws, short)
	res.set("experiment.rearm_us_per_node", micros(rearm)/float64(n))

	// N plain, N with telemetry, N fully traced: same seed, so the
	// results must be identical and the wall ratios are the overheads.
	// The first full-length run grows the kernel's and network's pools;
	// it is the reference result, and the plain run is timed after it.
	first, _ := tracedRun(tr, root, 1, ws, spec)
	res.attempted, res.failed = userOutcomes(first)
	plain, plainWall := tracedRun(tr, root, 1, ws, spec)

	metered := spec
	metered.Telemetry = obs.NewRegistry()
	meteredRes, meteredWall := tracedRun(tr, root, 2, ws, metered)
	res.set("obs.telemetry_wall_ratio", meteredWall.Seconds()/plainWall.Seconds())
	res.set("experiment.run_s_n10k", meteredWall.Seconds())
	res.set("sim.events_per_user_n10k", kernelEvents(metered.Telemetry)/float64(n))
	res.set("netsim.deliveries_per_user_n10k", sumSeries(metered.Telemetry, "sd_frames_delivered_total", 1)/float64(n))

	full := spec
	full.Telemetry = obs.NewRegistry()
	fc := &frameCounts{}
	full.MakeTracer = fc.install
	var cacheWrites float64
	full.Attach = func(sc *experiment.Scenario) {
		sc.TapConsistency(discovery.ListenerFunc(func(sim.Time, netsim.NodeID, netsim.NodeID, uint64) { cacheWrites++ }))
	}
	fullRes, fullWall := tracedRun(tr, root, 3, ws, full)
	res.set("obs.trace_wall_ratio", fullWall.Seconds()/plainWall.Seconds())
	res.set("netsim.frames_sent", float64(fc.sent))
	res.set("netsim.dropped_share", float64(fc.dropped)/float64(fc.delivered+fc.dropped))
	res.set("netsim.partitioned_drops", float64(fc.partitioned))
	if cacheWrites > 0 {
		res.set("netsim.deliveries_per_cache_write", float64(fc.delivered)/cacheWrites)
	}
	res.set("sim.events_per_op", kernelEvents(full.Telemetry)/float64(res.attempted))
	for _, other := range []metrics.RunResult{plain, meteredRes, fullRes} {
		if !reflect.DeepEqual(first, other) {
			res.problemf("scale_static: the same seed gave different RunResults with and without observers")
			break
		}
	}
	fp := newFingerprint()
	fp.add(first)
	res.set("metrics.sim_fingerprint", fp.value())
	res.set("metrics.f_static", 1-float64(res.failed)/float64(res.attempted))

	// The larger population, metered like the N run it is compared to:
	// the exponent is log2 of the wall ratio for a doubling of N.
	bigSpec := staticSpec(big, deriveSeed(cfg.seed, streamStatic, 1))
	bigSpec.Telemetry = obs.NewRegistry()
	bigRes, bigWall := tracedRun(tr, root, 4, ws, bigSpec)
	m, u := userOutcomes(bigRes)
	res.attempted += m
	res.failed += u
	res.set("experiment.run_s_n20k", bigWall.Seconds())
	res.set("experiment.scaling_exponent", math.Log2(bigWall.Seconds()/meteredWall.Seconds())/math.Log2(float64(big)/float64(n)))
	res.set("sim.events_per_user_n20k", kernelEvents(bigSpec.Telemetry)/float64(big))
	res.set("netsim.deliveries_per_user_n20k", sumSeries(bigSpec.Telemetry, "sd_frames_delivered_total", 1)/float64(big))

	// The same N on two shards: does sharding earn its keep on this host?
	if generators() >= 2 {
		sharded := spec
		sharded.Shards = 2
		sharded.Telemetry = obs.NewRegistry()
		shardRes, shardWall := tracedRun(tr, root, 5, ws, sharded)
		_, u := userOutcomes(shardRes)
		if u > 0 {
			res.problemf("scale_static: %d Users not reached on two shards", u)
		}
		res.set("experiment.shard_wall_ratio_s2", shardWall.Seconds()/meteredWall.Seconds())
		res.set("experiment.shard_busy_s_s2", sumSeries(sharded.Telemetry, "sd_shard_busy_nanos_total", 2)/1e9)
		res.set("experiment.shard_stall_s_s2", sumSeries(sharded.Telemetry, "sd_shard_barrier_stall_nanos_total", 2)/1e9)
		res.set("netsim.cross_frames_s2", sumSeries(sharded.Telemetry, "sd_shard_cross_frames_in_total", 2))
	} else {
		res.notef("experiment.shard_* and netsim.cross_frames_s2 not measured (read 0): GOMAXPROCS < 2, a ratio would mislead")
	}
	if res.failed > 0 {
		res.problemf("scale_static: %d of %d Users not reached on a static, failure-free population", res.failed, res.attempted)
	}

	microProbes(cfg, tr, root, res)
	res.set("experiment.cpu_s", cpuSeconds())
	tr.end(root)
	return res
}

func traceScaleDynamics(cfg runConfig, tr *tracer) *result {
	res := newResult(perLayer)
	root := tr.begin("benchmark.scale_dynamics", -1, 0, 0)
	n := cfg.sz.dynN
	spec := dynamicsSpec(n, deriveSeed(cfg.seed, streamDynamics, 0))

	// Each audited run gets a fresh Workspace, so it builds cold like the
	// unaudited run it is compared with.
	observe := func(op int64, s experiment.RunSpec) (verify.OracleReport, metrics.RunResult, time.Duration) {
		id := tr.begin("verify.ObserveRun", root, op, 0)
		defer tr.end(id)
		t := time.Now()
		rep, r := observeInto(experiment.NewWorkspace(), s)
		return rep, r, time.Since(t)
	}

	// The same seed with the oracle, without it (cold, then rearmed),
	// and with oracle, telemetry and tracer together.
	rep, audited, auditedWall := observe(1, spec)
	if rep.ProbesRun != rep.ProbesScheduled {
		res.problemf("scale_dynamics: %d of %d heal probes ran", rep.ProbesRun, rep.ProbesScheduled)
	}
	var unreached int
	res.attempted, unreached = userOutcomes(audited)
	checkEffectiveness(res, unreached)
	res.set("verify.violations", float64(rep.Total))
	res.set("verify.probes_run", float64(rep.ProbesRun))
	var near int
	for _, c := range rep.Coverage.NearMisses {
		near += c
	}
	res.set("verify.near_misses", float64(near))
	res.set("metrics.f_dynamics", 1-float64(unreached)/float64(res.attempted))
	fp := newFingerprint()
	fp.add(audited)
	res.set("metrics.sim_fingerprint", fp.value())

	ws := experiment.NewWorkspace()
	bare, bareWall := tracedRun(tr, root, 2, ws, spec)
	res.set("verify.oracle_wall_ratio", auditedWall.Seconds()/bareWall.Seconds())

	// A rearmed run allocates almost nothing at boot; what it does
	// allocate is the mid-run builds of arriving Users.
	arrivals := float64(len(bare.Users) - n)
	mem := markMem()
	rearmed, _ := tracedRun(tr, root, 3, ws, spec)
	mallocs, _ := mem.since()
	if arrivals > 0 {
		res.set("experiment.arrival_allocs_per_user", mallocs/arrivals)
	}

	full := spec
	full.Telemetry = obs.NewRegistry()
	fc := &frameCounts{}
	full.MakeTracer = fc.install
	_, fullRes, fullWall := observe(4, full)
	res.set("obs.trace_wall_ratio", fullWall.Seconds()/auditedWall.Seconds())
	res.set("verify.ns_per_frame", float64((auditedWall-bareWall).Nanoseconds())/float64(fc.sent+fc.delivered+fc.dropped))
	res.set("netsim.frames_sent", float64(fc.sent))
	res.set("netsim.dropped_share", float64(fc.dropped)/float64(fc.delivered+fc.dropped))
	res.set("netsim.partitioned_drops", float64(fc.partitioned))
	events := kernelEvents(full.Telemetry)
	res.set("sim.events_per_user_dyn", events/float64(res.attempted))
	res.set("sim.events_per_op", events/float64(res.attempted))
	for _, other := range []metrics.RunResult{bare, rearmed, fullRes} {
		if !reflect.DeepEqual(audited, other) {
			res.problemf("scale_dynamics: the same seed gave different RunResults with and without observers")
			break
		}
	}

	microProbes(cfg, tr, root, res)
	res.set("experiment.cpu_s", cpuSeconds())
	tr.end(root)
	return res
}
