// Package sdsim is the public face of the reproduction of
// "On Consistency Maintenance in Service Discovery" (Sundramoorthy,
// Hartel, Scholten; IPPS 2006).
//
// It exposes the five simulated service discovery systems (UPnP, Jini
// with one and two Registries, FRODO with 3-party and 2-party
// subscription), the paper's experimental design (§5), the NIST Update
// Metrics plus the paper's Efficiency Degradation refinement (§4.5), and
// the sweeps that regenerate every figure and table of the evaluation
// (§6).
//
// Quick start:
//
//	res := sdsim.Run(sdsim.RunSpec{System: sdsim.Frodo2P, Lambda: 0.3, Seed: 1,
//	    Params: sdsim.DefaultParams()})
//
// Full reproduction:
//
//	sweep := sdsim.Sweep(sdsim.SweepConfig{Params: sdsim.DefaultParams()})
//	fmt.Println(sdsim.Figure4(sweep))
//	fmt.Println(sdsim.Table5(sweep))
package sdsim

import (
	"io"

	"repro/internal/discovery"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/verify"
)

// System identifies one of the five simulated systems.
type System = experiment.System

// The five systems of §5.
const (
	UPnP    = experiment.UPnP
	Jini1   = experiment.Jini1
	Jini2   = experiment.Jini2
	Frodo3P = experiment.Frodo3P
	Frodo2P = experiment.Frodo2P
)

// Re-exported experiment types; see package experiment for field docs.
type (
	// Params fixes the experimental design (§5 Step 5).
	Params = experiment.Params
	// Topology parameterizes the scenario shape (Users, Managers,
	// Registries, background Services, boot stagger); the zero value is
	// the paper's Table 4 design. Set it on Params.Topology.
	Topology = experiment.Topology
	// Churn is the Poisson arrival/departure population model; the zero
	// value is the paper's static population. Set it on Params.Churn.
	Churn = experiment.Churn
	// Options customizes protocol configurations (ablations, message
	// loss).
	Options = experiment.Options
	// RunSpec identifies one simulation run.
	RunSpec = experiment.RunSpec
	// RunResult is one run's raw observations.
	RunResult = metrics.RunResult
	// Point is one system's aggregated metrics at one failure rate.
	Point = metrics.Point
	// Curve is a metric series over failure rates.
	Curve = metrics.Curve
	// SweepConfig selects systems and design for a failure-rate sweep.
	SweepConfig = experiment.SweepConfig
	// SweepResult holds aggregated curves and efficiency baselines.
	SweepResult = experiment.SweepResult
	// Table is a rendered figure or table.
	Table = experiment.Table
)

// Re-exported link-conditioning types; see package netsim for field
// docs. Set them on Options.Link (models) and Params.Partitions
// (scheduled splits); the zero values reproduce the paper's idealized
// network.
type (
	// LinkConfig selects the adversarial link models (burst loss,
	// heavy-tailed delay, reordering).
	LinkConfig = netsim.LinkConfig
	// BurstConfig is the Gilbert–Elliott two-state burst-loss chain.
	BurstConfig = netsim.BurstConfig
	// DelayConfig selects the one-way delay distribution.
	DelayConfig = netsim.DelayConfig
	// ReorderConfig adds probabilistic out-of-order delivery.
	ReorderConfig = netsim.ReorderConfig
	// DelayDist names a delay distribution.
	DelayDist = netsim.DelayDist
	// Partition is one scheduled transient network split.
	Partition = netsim.Partition
)

// The delay distributions.
const (
	DelayUniform   = netsim.DelayUniform
	DelayLognormal = netsim.DelayLognormal
	DelayPareto    = netsim.DelayPareto
)

// ParseDelayDist resolves a distribution name (uniform|lognormal|pareto).
func ParseDelayDist(s string) (DelayDist, error) { return netsim.ParseDelayDist(s) }

// BurstForAverage builds a Gilbert–Elliott chain with the given
// stationary loss rate and mean burst length — the equal-average
// counterpart of WithLoss for model comparisons.
func BurstForAverage(avg, meanBurst float64) BurstConfig {
	return netsim.BurstForAverage(avg, meanBurst)
}

// WithBurstLoss returns Options enabling Gilbert–Elliott burst loss at
// the given average rate and mean burst length.
func WithBurstLoss(avg, meanBurst float64) Options {
	return Options{Link: LinkConfig{Burst: BurstForAverage(avg, meanBurst)}}
}

// Hardening selects the protocol-hardening mechanisms of the hardening
// layer (strict lease enforcement, jittered retry, retirement Byes,
// Central liveness repair). Set it on Options.Harden (one run) or
// Params.Hardening (every run of a sweep); the zero value is the
// paper-faithful baseline.
type Hardening = discovery.Hardening

// HardenAll enables every hardening mechanism.
func HardenAll() Hardening { return discovery.HardenAll() }

// Time and Duration re-export the virtual clock units.
type (
	Time     = sim.Time
	Duration = sim.Duration
)

// Second is one virtual second.
const Second = sim.Second

// Systems lists the five systems in the paper's order.
func Systems() []System { return experiment.Systems() }

// ParseSystem resolves a short label (upnp|jini1|jini2|frodo3p|frodo2p).
func ParseSystem(s string) (System, error) { return experiment.ParseSystem(s) }

// DefaultParams returns the paper's experimental design: 5 Users, 5400s
// deadline, change at U[100s,2700s], λ ∈ {0,0.05,…,0.90}, 30 runs per
// point.
func DefaultParams() Params { return experiment.DefaultParams() }

// DefaultLambdas returns the paper's failure-rate grid.
func DefaultLambdas() []float64 { return experiment.DefaultLambdas() }

// DefaultRegistries reports the Table 4 Registry count for a system.
func DefaultRegistries(s System) int { return experiment.DefaultRegistries(s) }

// Run executes one scenario.
func Run(spec RunSpec) RunResult { return experiment.Run(spec) }

// RunLogged executes one scenario and returns a §6.2-style event log.
func RunLogged(spec RunSpec, verbose bool) (RunResult, []string) {
	return experiment.RunLogged(spec, verbose)
}

// RunTraced executes one scenario while streaming a structured JSONL
// trace of every frame and interface transition to w.
func RunTraced(spec RunSpec, w io.Writer) (RunResult, error) {
	var tw *trace.Writer
	spec.MakeTracer = func(*netsim.Network) netsim.Tracer {
		tw = trace.NewWriter(w)
		return tw
	}
	res := experiment.Run(spec)
	if err := tw.Flush(); err != nil {
		return res, err
	}
	return res, nil
}

// ReadTrace parses a JSONL trace stream.
func ReadTrace(r io.Reader) ([]trace.Event, error) { return trace.Read(r) }

// TraceSummary aggregates a parsed trace.
func TraceSummary(events []trace.Event) trace.Summary { return trace.Summarize(events) }

// Sweep runs the failure-rate grid on a parallel worker pool.
func Sweep(cfg SweepConfig) SweepResult { return experiment.Sweep(cfg) }

// Metric selects a curve for chart rendering.
type Metric = experiment.Metric

// The chartable metrics.
const (
	MetricEffectiveness  = experiment.MetricEffectiveness
	MetricResponsiveness = experiment.MetricResponsiveness
	MetricDegradation    = experiment.MetricDegradation
)

// Chart renders one metric's curves as an ASCII chart in the style of
// the paper's figures.
func Chart(res SweepResult, m Metric) string { return experiment.Chart(res, m) }

// Figure4 renders Average Update Effectiveness vs failure rate.
func Figure4(res SweepResult) Table { return experiment.Figure4(res) }

// Figure5 renders Median Update Responsiveness vs failure rate.
func Figure5(res SweepResult) Table { return experiment.Figure5(res) }

// Figure6 renders Efficiency Degradation vs failure rate.
func Figure6(res SweepResult) Table { return experiment.Figure6(res) }

// Figure7Sweep runs the PR1 control experiment on both FRODO systems.
func Figure7Sweep(params Params, workers int, progress func(done, total int)) (with, without SweepResult) {
	return experiment.Figure7Sweep(params, workers, progress)
}

// Figure7 renders the PR1 ablation.
func Figure7(with, without SweepResult) Table { return experiment.Figure7(with, without) }

// FigureAdversarial compares i.i.d. against Gilbert–Elliott burst loss
// at equal average rates across all five systems.
func FigureAdversarial(params Params, workers int, progress func(done, total int)) Table {
	return experiment.FigureAdversarial(params, workers, progress)
}

// FigureHardening compares baseline against hardened runs under the
// hunted fault mix: zero-failure effort m', update effectiveness F,
// counted effort, oracle violations, and worst purge latency.
func FigureHardening(params Params, runs, workers int, progress func(done, total int)) Table {
	return verify.FigureHardening(params, runs, workers, progress)
}

// Table2 measures the zero-failure update message counts (Table 2).
func Table2(params Params) Table { return experiment.Table2(params) }

// Table5 renders metric averages across failure rates (Table 5).
func Table5(res SweepResult) Table { return experiment.Table5(res) }

// PaperMPrime reports the paper's m' for a system (Fig. 6 legend).
func PaperMPrime(s System) int { return experiment.PaperMPrime(s) }

// GuaranteeResult is the outcome of checking the Configuration Update
// Principles over the single-outage scenario grid.
type GuaranteeResult = verify.Result

// GuaranteeGrid is the scenario enumeration bounds.
type GuaranteeGrid = verify.GridConfig

// DefaultGuaranteeGrid returns the standard grid: 3 failure targets x 3
// interface modes x 3 starts x up to 4 durations, each left 4200s of
// post-recovery slack.
func DefaultGuaranteeGrid() GuaranteeGrid { return verify.DefaultGrid() }

// CheckGuarantees verifies the Configuration Update Principles (§4.1)
// for one system across the grid: every User must eventually regain
// consistency once connectivity is restored. FRODO holds; the
// first-generation systems are expected to violate ([8], [24]).
func CheckGuarantees(sys System, grid GuaranteeGrid) GuaranteeResult {
	return verify.Check(sys, grid)
}

// Re-exported run-time consistency oracle; see package verify for the
// invariant catalogue (version bound, lease purge, single Central after
// partition heal, retired-node silence).
type (
	// OracleConfig bounds the oracle's tolerances.
	OracleConfig = verify.OracleConfig
	// OracleReport summarizes one audited run.
	OracleReport = verify.OracleReport
	// OracleViolation is one observed invariant breach.
	OracleViolation = verify.OracleViolation
)

// DefaultOracleConfig returns the §5-parameter tolerances for a system.
func DefaultOracleConfig(sys System) OracleConfig { return verify.DefaultOracleConfig(sys) }

// ObserveRun executes one run with the consistency oracle attached,
// returning the oracle's report alongside the run's metrics. The oracle
// audits the run online and never perturbs it.
func ObserveRun(spec RunSpec, cfg OracleConfig) (OracleReport, RunResult) {
	return verify.ObserveRun(spec, cfg)
}

// Re-exported declarative scenario specs — the JSON currency shared by
// sdsweep, sdverify and the chaos hunter (internal/hunt): one file
// describes topology, λ, churn, partitions, link conditioning, flash
// crowds and rack failures, and replays deterministically by its seed.
type (
	// ScenarioSpec is the JSON-serializable form of one scenario.
	ScenarioSpec = experiment.ScenarioSpec
	// FlashCrowd is one scheduled arrival spike (Params.FlashCrowds).
	FlashCrowd = experiment.FlashCrowd
	// RackPlanConfig schedules correlated rack-level interface outages
	// (Params.RackFailures).
	RackPlanConfig = netsim.RackPlanConfig
	// OracleCoverage is the oracle's behavioral near-miss/slack signal.
	OracleCoverage = verify.OracleCoverage
)

// ParseSpec decodes one scenario spec strictly: unknown fields are
// errors, and the spec is validated with field-path diagnostics.
func ParseSpec(r io.Reader) (*ScenarioSpec, error) { return experiment.ParseSpec(r) }

// LoadSpec reads and parses a scenario spec file.
func LoadSpec(path string) (*ScenarioSpec, error) { return experiment.LoadSpec(path) }
