package experiment

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Params fixes the experiment design (§5 Step 5). DefaultParams is the
// paper's configuration.
type Params struct {
	// RunDuration is the simulation length and deadline D.
	RunDuration sim.Duration
	// ChangeMin/ChangeMax bound the random service change time C
	// ("at a random time between 100s to 2700s").
	ChangeMin, ChangeMax sim.Time
	// Changes is the number of service changes per run. The paper uses
	// exactly one; more changes form the frequent-update extension that
	// exercises SRC2's sequence-gap detection (a gap needs a missed
	// update followed by a received one). Zero means one.
	Changes int
	// FailureWindowStart/End bound the random failure activation time.
	// Zero fields fall back to the paper's window (100s–5400s) unless
	// FailureWindowSet is true, which takes both verbatim — the only way
	// to express a window that genuinely starts (or ends) at 0.
	FailureWindowStart, FailureWindowEnd sim.Time
	// FailureWindowSet marks FailureWindowStart/End as explicit. Without
	// it a deliberate FailureWindowStart of 0 would be silently
	// overwritten with the 100s default.
	FailureWindowSet bool
	// Runs is X, the number of repetitions per (system, λ).
	Runs int
	// Lambdas is the failure-rate sweep.
	Lambdas []float64
	// BaseSeed derives all run seeds; same BaseSeed ⇒ identical sweep.
	BaseSeed int64
	// Topology generalizes the Table 4 scenario shape; Topology.Users is
	// N, the number of Users discovering the Manager. The zero value
	// reproduces the paper.
	Topology Topology
	// Churn adds Poisson User arrivals and departures during the run;
	// the zero value keeps the paper's static population.
	Churn Churn
	// Partitions schedules transient network splits, applied identically
	// to every run of a sweep. They compose with the λ interface-failure
	// model (partitions isolate node sets; failures take interfaces
	// down). Use netsim.Partition.Bisect for a system-agnostic split —
	// explicit SideB node IDs differ across systems' build orders.
	Partitions []netsim.Partition
	// FlashCrowds schedules arrival spikes: bursts of fresh Users joining
	// within a short window, on top of any Poisson churn.
	FlashCrowds []FlashCrowd
	// RackFailures adds correlated rack-level outages: whole contiguous
	// blocks of the node table lose both interfaces inside one window,
	// composing with the per-node λ plan.
	RackFailures netsim.RackPlanConfig
	// Outages schedules fixed interface outages on named roles after the
	// λ plan, composing with it as racks do. CheckOutages reports a role
	// a system lacks before any run starts.
	Outages []Outage
	// EffortPad extends the effort window so frames of the final
	// exchange still in flight when the last User turns consistent are
	// counted (see DESIGN.md).
	EffortPad sim.Duration
}

// Outage is one fixed interface outage on a role of the scenario:
// "manager", "user:<i>" or "registry:<i>" (Scenario.RoleNode).
type Outage struct {
	Node     string
	Mode     netsim.FailMode
	Start    sim.Time
	Duration sim.Duration
}

// CheckOutages reports the first outage whose role sys lacks in the
// params' topology — a Registry on UPnP, a User past the population —
// naming it by its spec path.
func (p Params) CheckOutages(sys System) error {
	topo := p.Topology.normalized(sys)
	for i, o := range p.Outages {
		if _, _, err := topo.role(sys, o.Node); err != nil {
			return fmt.Errorf("scenario: outages[%d].node: %w", i, err)
		}
	}
	return nil
}

// DefaultParams returns the paper's experiment design: 5 Users, 5400s
// runs, change at U[100s,2700s], failures at U[100s,5400s] lasting
// λ·5400s, λ from 0 to 0.90 in steps of 0.05, 30 runs per point.
func DefaultParams() Params {
	return Params{
		RunDuration:        core.RunDuration,
		ChangeMin:          100 * sim.Second,
		ChangeMax:          2700 * sim.Second,
		FailureWindowStart: 100 * sim.Second,
		FailureWindowEnd:   core.RunDuration,
		Runs:               30,
		Lambdas:            DefaultLambdas(),
		BaseSeed:           1,
		EffortPad:          sim.Second,
		Topology:           Topology{Users: paperUsers},
	}
}

// withDefaults fills every unset field from DefaultParams while
// preserving what the caller set — notably Topology and Churn, which a
// wholesale DefaultParams replacement would silently discard.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Topology.Users == 0 {
		p.Topology.Users = d.Topology.Users
	}
	if p.RunDuration == 0 {
		p.RunDuration = d.RunDuration
	}
	if p.ChangeMin == 0 {
		p.ChangeMin = d.ChangeMin
	}
	if p.ChangeMax == 0 {
		p.ChangeMax = d.ChangeMax
	}
	if !p.FailureWindowSet {
		if p.FailureWindowStart == 0 {
			p.FailureWindowStart = d.FailureWindowStart
		}
		if p.FailureWindowEnd == 0 {
			p.FailureWindowEnd = d.FailureWindowEnd
		}
	}
	if p.Runs == 0 {
		p.Runs = d.Runs
	}
	if len(p.Lambdas) == 0 {
		p.Lambdas = d.Lambdas
	}
	if p.BaseSeed == 0 {
		p.BaseSeed = d.BaseSeed
	}
	if p.EffortPad == 0 {
		p.EffortPad = d.EffortPad
	}
	return p
}

// DefaultLambdas returns 0.00, 0.05, …, 0.90.
func DefaultLambdas() []float64 {
	out := make([]float64, 0, 19)
	for i := 0; i <= 18; i++ {
		out = append(out, float64(i)*0.05)
	}
	return out
}

// RunSpec identifies a single simulation run.
type RunSpec struct {
	System System
	Lambda float64
	Seed   int64
	Params Params
	Opts   Options
	// MakeTracer, when set, builds a tracer for the run's network (event
	// logs).
	MakeTracer func(*netsim.Network) netsim.Tracer
	// Attach, when set, observes the built scenario before any schedule
	// is drawn: the run-time consistency oracle hooks its taps (tracer
	// tee, cache-write and change taps) here. Attach must not
	// consume the kernel's random stream — the churn, failure and change
	// schedules are drawn afterwards and must replay bit for bit with and
	// without an observer.
	Attach func(*Scenario)
	// Shards is ignored: every run is one kernel on one network. The
	// field is kept so callers that still set it compile and get the
	// single-kernel run.
	Shards int
	// Telemetry, when set, routes this run's frame and kernel metrics
	// into the given obs registry (a tee'd frame tracer, kernel gauges).
	// Nil falls back to the process default installed with SetTelemetry;
	// nil both ways meters nothing. Metering is passive — same schedules,
	// same results, zero allocations on the frame path.
	Telemetry *obs.Registry
}

// Run executes one full scenario and returns the raw observations. It
// draws a pooled Workspace, so callers that loop over Run reuse kernel,
// network, recorder and — for same-shape runs — whole protocol-instance
// graphs across iterations. The deferred Put keeps a panicking run from
// leaking its workspace; the panic still propagates, and the workspace's
// next user rebuilds from a clean Reset, so a half-built scenario cannot
// poison the pool.
func Run(spec RunSpec) metrics.RunResult {
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	res, _ := runInWorkspace(ws, spec)
	return res
}

// RunInto executes one run on the caller's workspace. Sweep workers use
// it to reuse simulation scratch across consecutive runs on one
// goroutine.
func RunInto(ws *Workspace, spec RunSpec) metrics.RunResult {
	res, _ := runInWorkspace(ws, spec)
	return res
}

// RunLogged executes one run with a paper-style event log attached
// (§6.2): interface transitions, protocol annotations and — when verbose
// — every frame.
func RunLogged(spec RunSpec, verbose bool) (metrics.RunResult, []string) {
	var rec *netsim.Recorder
	spec.MakeTracer = func(nw *netsim.Network) netsim.Tracer {
		rec = netsim.NewRecorder(nw)
		rec.Verbose = verbose
		return rec
	}
	// A private workspace: the Scenario stays valid after the run.
	res, sc := runInWorkspace(NewWorkspace(), spec)
	rec.Note(res.Deadline, "service changed at %.0fs (version %d)", res.ChangeAt.Sec(), sc.TargetVersion)
	for _, u := range res.Users {
		name := sc.Net.Node(u.User).Name
		if u.Reached {
			rec.Note(res.Deadline, "%s reached consistency at %.3fs", name, u.At.Sec())
		} else {
			rec.Note(res.Deadline, "%s NEVER regained consistency (Configuration Update Principle violated within D)", name)
		}
	}
	rec.Note(res.Deadline, "update effort y = %d counted discovery messages", res.Effort)
	return res, rec.Lines()
}

// runInWorkspace is the one run path (§5 Steps 1–5): build, observe,
// schedule the dynamics and the fault plan, advance to the deadline,
// assemble the result.
func runInWorkspace(ws *Workspace, spec RunSpec) (metrics.RunResult, *Scenario) {
	sc := buildTopology(ws, spec.System, ws.kernel(spec.Seed), spec.Params.Topology, spec.Opts)
	if spec.MakeTracer != nil {
		sc.Net.SetTracer(spec.MakeTracer(sc.Net))
	}
	reg := spec.telemetry()
	if reg != nil {
		// Tee'd in, not installed: metering rides alongside any caller
		// tracer and the oracle's tap, observing the same frames.
		sc.Meter(reg)
	}
	if spec.Attach != nil {
		spec.Attach(sc)
	}
	// Churn draws its whole schedule now, before the failure plan, so a
	// given seed yields one fixed event timeline. Flash crowds draw no
	// randomness and ride on the same arrival hook.
	sc.scheduleChurn(spec.Params.Churn, spec.Params.RunDuration)
	sc.scheduleFlashCrowds(spec.Params.FlashCrowds)

	// The interface failures (§5 Step 2): one outage per node. At λ=0
	// the planner draws nothing.
	sc.Net.ScheduleFailures(netsim.PlanInterfaceFailures(sc.K, sc.AllNodeIDs(), netsim.FailurePlanConfig{
		Lambda:      spec.Lambda,
		WindowStart: spec.Params.FailureWindowStart,
		WindowEnd:   spec.Params.FailureWindowEnd,
		RunDuration: spec.Params.RunDuration,
	}))
	// The fixed outages draw nothing; each names its node by role.
	for _, o := range spec.Params.Outages {
		node, err := sc.RoleNode(o.Node)
		if err != nil {
			panic(fmt.Sprintf("experiment: %v", err)) // CheckOutages reports it before the run
		}
		sc.Net.ScheduleFailure(netsim.InterfaceFailure{Node: node, Mode: o.Mode, Start: o.Start, Duration: o.Duration})
	}
	// Correlated rack outages draw after the λ plan and compose with it;
	// a disabled config draws nothing, keeping default runs bit-identical.
	if spec.Params.RackFailures.Enabled() {
		sc.Net.ScheduleFailures(netsim.PlanRackFailures(sc.K, sc.AllNodeIDs(), spec.Params.RackFailures))
	}
	// Transient partitions ride on top of the failure plan; scheduling
	// them draws no randomness, so default runs replay unchanged.
	sc.Net.SchedulePartitions(spec.Params.Partitions)
	changeAt := sc.scheduleChanges(spec.Params)

	deadline := sim.Time(spec.Params.RunDuration)
	sc.K.Run(deadline)

	res := sc.result(spec, changeAt, deadline)
	if reg != nil {
		reg.Gauge("sd_kernel_events", "shard", "0").Set(int64(sc.K.Fired()))
		reg.Gauge("sd_kernel_pending", "shard", "0").Set(int64(sc.K.Pending()))
	}
	ws.adopt(sc)
	return res, sc
}

// scheduleChanges draws the service change time(s) C ~ U[ChangeMin,
// ChangeMax] and arms them. With multiple changes (the frequent-update
// extension), consistency is measured against the final version, from
// the last change time, which is returned.
func (s *Scenario) scheduleChanges(p Params) sim.Time {
	n := max(p.Changes, 1)
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = s.K.UniformTime(p.ChangeMin, p.ChangeMax)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	s.TargetVersion, s.rec.target = uint64(1+n), uint64(1+n)
	for _, at := range times {
		s.K.At(at, s.FireChange)
	}
	return times[n-1]
}

// result assembles the run's observations at the deadline: per-User
// outcomes — the live Users in UserIDs order (the boot order, on a static
// population), then the permanently departed ones whose slots were
// recycled, with the outcomes frozen at departure — and the update
// effort.
func (s *Scenario) result(spec RunSpec, changeAt, deadline sim.Time) metrics.RunResult {
	retired := s.RetiredOutcomes()
	res := metrics.RunResult{
		Seed:     spec.Seed,
		ChangeAt: changeAt,
		Deadline: deadline,
		Users:    make([]metrics.UserOutcome, 0, len(s.UserIDs)+len(retired)),
	}
	allDone := changeAt
	allReached := true
	for _, uid := range s.UserIDs {
		at, ok := s.ReachedAt(uid)
		excluded := !ok && s.AbsentAtEnd(uid)
		res.Users = append(res.Users, metrics.UserOutcome{User: uid, Reached: ok, At: at, Excluded: excluded})
		switch {
		case excluded:
			// Churned out: no U(i,j) sample, no effort-window claim.
		case !ok:
			allReached = false
		case at > allDone:
			allDone = at
		}
	}
	for _, o := range retired {
		res.Users = append(res.Users, o)
		if !o.Excluded && o.At > allDone {
			allDone = o.At
		}
	}
	winEnd := deadline
	if allReached {
		winEnd = min(allDone+spec.Params.EffortPad, deadline)
	}
	c := s.Net.Counters()
	res.Effort = c.CountedInWindow(changeAt, winEnd)
	res.TotalDiscoverySends = c.DiscoverySends
	res.TotalTransport = c.TransportFrames
	return res
}

// SeedFor derives the deterministic seed of one run.
func SeedFor(base int64, sys System, lambdaIdx, runIdx int) int64 {
	return base + int64(sys)*1_000_003 + int64(lambdaIdx)*10_007 + int64(runIdx)
}
