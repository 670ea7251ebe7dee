package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Seed streams: every derived seed names the stream it belongs to.
const (
	streamSetup = iota
	streamSweep
	streamProbe
	streamStatic
	streamDynamics
	streamLive
	streamMicro
)

// figureParams is the paper's §5 design for one figure: every system,
// every lambda, X runs per cell, N=5 Users.
func figureParams(cfg runConfig, fig int) experiment.Params {
	p := experiment.DefaultParams()
	p.Runs = cfg.sz.sweepRuns
	if cfg.sz.sweepLambdas != nil {
		p.Lambdas = cfg.sz.sweepLambdas
	}
	p.BaseSeed = deriveSeed(cfg.seed, streamSweep, fig)
	return p
}

// coldSystems times what a sweep worker pays before it reaches steady
// state: a fresh Workspace and the first, cold-built run of each of the
// five systems.
func coldSystems(p experiment.Params, seed int64) time.Duration {
	t := time.Now()
	ws := experiment.NewWorkspace()
	for _, sys := range experiment.Systems() {
		experiment.RunInto(ws, experiment.RunSpec{System: sys, Seed: seed, Params: p})
	}
	return time.Since(t)
}

// checkFigure applies the semantic checks to one figure's raw runs and
// returns (runs, failed). A lambda=0 run fails when a User stays stale
// or its effort undercuts the system's m'; the measured m' itself must
// be the paper's.
func checkFigure(res *result, sr experiment.SweepResult) (runs, failed int) {
	for _, sys := range sr.Systems {
		for li, lambda := range sr.Params.Lambdas {
			for _, r := range sr.Raw[sys][li] {
				runs++
				if lambda != 0 {
					continue
				}
				bad := r.Effort < experiment.PaperMPrime(sys)
				for _, u := range r.Users {
					bad = bad || !u.Reached
				}
				if bad {
					failed++
				}
			}
		}
		if sr.Params.Lambdas[0] == 0 && sr.MPrime[sys] != experiment.PaperMPrime(sys) {
			res.problemf("paper_sweep: %s measured m'=%d, the paper has %d", sys.Short(), sr.MPrime[sys], experiment.PaperMPrime(sys))
		}
	}
	return runs, failed
}

func runPaperSweep(cfg runConfig, tr *tracer) *result {
	if cfg.trace {
		return tracePaperSweep(cfg, tr)
	}
	res := newResult(endToEnd)

	var setups []float64
	for rep := 0; rep < 17*cfg.sz.setupReps; rep++ {
		runtime.GC() // a collection landing inside 4ms of work would double it
		setups = append(setups, coldSystems(figureParams(cfg, 0), deriveSeed(cfg.seed, streamSetup, rep)).Seconds())
	}
	res.setN("setup_s", stats.Median(setups), len(setups))

	// Measured phase: whole figures back to back until the time is up.
	fp := newFingerprint()
	var figUS []float64
	var busy time.Duration
	mem := markMem()
	for fig := 0; !timeUp(busy, fig, cfg.seconds); fig++ {
		t := time.Now()
		sr := experiment.Sweep(experiment.SweepConfig{Params: figureParams(cfg, fig), Workers: 1, RetainRaw: true})
		d := time.Since(t)
		busy += d
		figUS = append(figUS, micros(d))
		runs, failed := checkFigure(res, sr)
		res.attempted += runs
		res.failed += failed
		addRaw(fp, sr)
	}
	mallocs, bytes := mem.since()
	ops := float64(res.attempted)
	res.setN("ops_per_s", ops/busy.Seconds(), res.attempted)
	res.setN("op_p50_us", stats.Median(figUS), len(figUS))
	res.set("allocs_per_op", mallocs/ops)
	res.set("alloc_kb_per_op", bytes/1024/ops)
	res.notef("op = one simulation run; op_p50_us = one figure (%d runs); sim_fingerprint %.0f over %d figures",
		res.attempted/len(figUS), fp.value(), len(figUS))
	return res
}

func addRaw(fp *fingerprint, sr experiment.SweepResult) {
	for _, sys := range sr.Systems {
		for li := range sr.Params.Lambdas {
			for _, r := range sr.Raw[sys][li] {
				fp.add(r)
			}
		}
	}
}

// frameCounts is the counting tracer the traced pass installs through
// RunSpec.MakeTracer: frames seen from outside the network.
type frameCounts struct {
	sent, delivered, multicastDelivered, dropped, partitioned uint64
}

func (c *frameCounts) MessageSent(sim.Time, *netsim.Message) { c.sent++ }
func (c *frameCounts) MessageDelivered(_ sim.Time, m *netsim.Message) {
	c.delivered++
	if m.Multicast {
		c.multicastDelivered++
	}
}
func (c *frameCounts) MessageDropped(_ sim.Time, _ *netsim.Message, reason string) {
	c.dropped++
	if reason == "partitioned" {
		c.partitioned++
	}
}
func (c *frameCounts) NodeEvent(sim.Time, netsim.NodeID, string) {}

func (c *frameCounts) install(*netsim.Network) netsim.Tracer { return c }

// kernelEvents reads the fired-event count a metered run leaves in the
// registry.
func kernelEvents(reg *obs.Registry) float64 {
	return float64(reg.Gauge("sd_kernel_events", "shard", "0").Load())
}

// gridLoop is Sweep's grid as a plain loop of RunInto calls on one
// Workspace, so the traced pass can put a span around, and a registry
// and tracer into, every run. With tr, reg and fc nil it is the
// untraced reference for the tracing overhead.
func gridLoop(p experiment.Params, tr *tracer, parent int, reg *obs.Registry, fc *frameCounts) (out []metrics.RunResult, events float64) {
	ws := experiment.NewWorkspace()
	ws.TrustOptions()
	var op int64
	for _, sys := range experiment.Systems() {
		for li, lambda := range p.Lambdas {
			for r := 0; r < p.Runs; r++ {
				spec := experiment.RunSpec{System: sys, Lambda: lambda,
					Seed: experiment.SeedFor(p.BaseSeed, sys, li, r), Params: p, Telemetry: reg}
				if fc != nil {
					spec.MakeTracer = fc.install
				}
				op++
				id := tr.begin("experiment.RunInto", parent, op, 0)
				res := experiment.RunInto(ws, spec)
				tr.end(id)
				if reg != nil {
					events += kernelEvents(reg)
				}
				out = append(out, res)
			}
		}
	}
	return out, events
}

// protocolProbe times warm paper-scale runs of one system at
// lambda=0.30: median microseconds and mean allocations per run.
func protocolProbe(cfg runConfig, tr *tracer, parent int, sys experiment.System) (us, allocs float64, n int) {
	p := experiment.DefaultParams()
	ws := experiment.NewWorkspace()
	spec := func(i int) experiment.RunSpec {
		return experiment.RunSpec{System: sys, Lambda: 0.30, Seed: deriveSeed(cfg.seed, streamProbe, i), Params: p}
	}
	for i := 0; i < 5; i++ {
		experiment.RunInto(ws, spec(-1-i))
	}
	n = 3 * cfg.sz.micro
	times := make([]float64, 0, n)
	mem := markMem()
	for i := 0; i < n; i++ {
		id := tr.begin("experiment.RunInto", parent, int64(i), 0)
		t := time.Now()
		experiment.RunInto(ws, spec(i))
		times = append(times, micros(time.Since(t)))
		tr.end(id)
	}
	mallocs, _ := mem.since()
	return stats.Median(times), mallocs / float64(n), n
}

var protocolMetric = map[experiment.System]string{
	experiment.UPnP:    "upnp.%s_per_run",
	experiment.Jini1:   "jini.%s_per_run_1reg",
	experiment.Jini2:   "jini.%s_per_run_2reg",
	experiment.Frodo3P: "frodo.%s_per_run_3p",
	experiment.Frodo2P: "frodo.%s_per_run_2p",
}

func tracePaperSweep(cfg runConfig, tr *tracer) *result {
	res := newResult(perLayer)
	root := tr.begin("benchmark.paper_sweep", -1, 0, 0)
	p := figureParams(cfg, 0)

	// The same figure three ways: a plain loop, the loop with spans,
	// registry and counting tracer, and experiment.Sweep itself. All
	// three must agree run for run.
	id := tr.begin("benchmark.grid_untraced", root, 0, 0)
	t := time.Now()
	plain, _ := gridLoop(p, nil, -1, nil, nil)
	plainWall := time.Since(t)
	tr.end(id)

	reg := obs.NewRegistry()
	fc := &frameCounts{}
	id = tr.begin("benchmark.grid_traced", root, 0, 0)
	t = time.Now()
	traced, events := gridLoop(p, tr, id, reg, fc)
	tracedWall := time.Since(t)
	tr.end(id)
	if !reflect.DeepEqual(plain, traced) {
		res.problemf("paper_sweep: runs differ with telemetry and tracer attached")
	}
	runs := float64(len(traced))
	res.attempted = len(traced)
	res.set("obs.trace_wall_ratio", tracedWall.Seconds()/plainWall.Seconds())
	res.set("sim.events_per_run", events/runs)
	res.set("sim.events_per_op", events/runs)
	res.set("netsim.frames_sent", float64(fc.sent))
	if fc.sent > 0 {
		res.set("netsim.dropped_share", float64(fc.dropped)/float64(fc.sent+fc.multicastDelivered))
	}

	sweep := func(workers int) (experiment.SweepResult, time.Duration) {
		id := tr.begin("experiment.Sweep", root, int64(workers), 0)
		defer tr.end(id)
		t := time.Now()
		sr := experiment.Sweep(experiment.SweepConfig{Params: p, Workers: workers, RetainRaw: true})
		return sr, time.Since(t)
	}
	sr, oneWall := sweep(1)
	_, res.failed = checkFigure(res, sr)
	fp := newFingerprint()
	addRaw(fp, sr)
	gfp := newFingerprint()
	for _, r := range traced {
		gfp.add(r)
	}
	if fp.h != gfp.h {
		res.problemf("paper_sweep: experiment.Sweep and a loop of RunInto disagree")
	}
	res.set("metrics.sim_fingerprint", fp.value())
	for i, sys := range experiment.Systems() {
		short := systemShorts[i]
		r, f, g := sr.Curves[sys].Average()
		res.set("metrics.mprime_"+short, float64(sr.MPrime[sys]))
		res.set("metrics.f_avg_"+short, f)
		res.set("metrics.r_avg_"+short, r)
		res.set("metrics.g_avg_"+short, g)
	}
	if w := generators(); w >= 2 {
		par, parWall := sweep(w)
		pfp := newFingerprint()
		addRaw(pfp, par)
		if pfp.h != fp.h {
			res.problemf("paper_sweep: sweep at Workers=%d differs from Workers=1", w)
		}
		res.set("experiment.sweep_speedup_wmax", oneWall.Seconds()/parWall.Seconds())
	} else {
		res.notef("experiment.sweep_speedup_wmax not measured (reads 0): GOMAXPROCS < 2, a ratio would mislead")
	}

	id = tr.begin("benchmark.protocol_probes", root, 0, 0)
	for _, sys := range experiment.Systems() {
		us, allocs, n := protocolProbe(cfg, tr, id, sys)
		res.setN(fmt.Sprintf(protocolMetric[sys], "us"), us, n)
		res.set(fmt.Sprintf(protocolMetric[sys], "allocs"), allocs)
	}
	tr.end(id)

	microProbes(cfg, tr, root, res)
	res.set("experiment.cpu_s", cpuSeconds())
	tr.end(root)
	return res
}
