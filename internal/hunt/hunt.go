// Package hunt is the chaos hunter: a deterministic, coverage-guided
// fuzzer over declarative scenario specs, aimed at the run-time
// consistency oracle. It mutates ScenarioSpecs (topology, λ, churn,
// partitions, link conditioning, flash crowds, rack failures), runs
// each candidate through all audited systems, keeps the candidates
// that exhibit new behavior (see coverage.go) as a corpus, and
// delta-debugs any invariant violation down to a minimal, committable
// fixture (see minimize.go, fixture.go).
//
// Everything is deterministic in (Seed, Budget): the budget is a cost
// model over virtual node-seconds, not wall-clock, so the same hunt
// replays identically on any machine — slow hardware just takes
// longer to reach the same corpus and the same report.
package hunt

import (
	"fmt"
	"math/rand"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/verify"
)

// CostPerWallSecond converts a wall-clock budget into cost units. One
// cost unit is one node·virtual-second on one system; the constant is
// calibrated on a race-built binary (the CI configuration, roughly 4×
// slower than a plain build), so `-budget 60s` means ≈ one race-built
// wall minute of hunting — while the resulting cost ceiling, and hence
// the hunt itself, is machine-independent.
const CostPerWallSecond = 6_000_000

// Config parameterizes one hunt.
type Config struct {
	// Seed drives the mutation chain and candidate selection.
	Seed int64
	// Budget bounds the search in cost units (see Cost); ≤ 0 means
	// unbounded — then Iters must bound the hunt.
	Budget int64
	// Iters caps the number of mutated candidates; ≤ 0 means no cap.
	Iters int
	// Systems to audit every candidate on; nil means all five.
	Systems []experiment.System
	// Harden audits every candidate with the full protocol-hardening
	// layer on, so the hunt searches for failures the layer does NOT
	// close. Findings, fixtures and corpus entries then carry
	// hardened: true and replay hardened.
	Harden bool
	// Corpus adds extra starting specs — typically a committed corpus
	// from an earlier hunt — after the built-in seeds, so a resumed
	// hunt starts from the frontier the last one reached.
	Corpus []*experiment.ScenarioSpec
	// Oracle overrides the per-system oracle tolerances; nil means
	// verify.DefaultOracleConfig. Tests plant violations by tightening
	// a tolerance to near zero.
	Oracle func(experiment.System) verify.OracleConfig
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// Finding is one invariant violation the hunt surfaced, with the spec
// that provoked it and its minimized form.
type Finding struct {
	System    experiment.System
	Invariant verify.Invariant
	// Count is the violation count of the original candidate.
	Count int
	// Spec is the candidate as found; Minimized is its delta-debugged
	// reduction (never nil after Run returns — at worst it equals Spec).
	Spec      *experiment.ScenarioSpec
	Minimized *experiment.ScenarioSpec
}

// Report is the machine-readable outcome of one hunt.
type Report struct {
	Seed         int64           `json:"seed"`
	Candidates   int             `json:"candidates"`
	Runs         int             `json:"runs"`
	MinimizeRuns int             `json:"minimize_runs"`
	CostSpent    int64           `json:"cost_spent"`
	CostBudget   int64           `json:"cost_budget,omitempty"`
	CorpusSize   int             `json:"corpus_size"`
	CoverageKeys int             `json:"coverage_keys"`
	Findings     []FindingReport `json:"findings"`
}

// FindingReport is the serializable summary of one Finding.
type FindingReport struct {
	System    string `json:"system"`
	Invariant string `json:"invariant"`
	Count     int    `json:"count"`
	Fixture   string `json:"fixture,omitempty"`
}

// Clean reports whether the hunt ended with zero violations.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// Hunter runs one coverage-guided hunt. Not safe for concurrent use:
// determinism comes from a single sequential loop.
type Hunter struct {
	cfg     Config
	systems []experiment.System
	rng     *rand.Rand

	seen     map[string]bool
	corpus   []*experiment.ScenarioSpec
	findings []*Finding
	found    map[string]bool // sys/invariant pairs already recorded

	candidates, runs, minRuns int
	spent                     int64
}

// New builds a hunter; call Run once.
func New(cfg Config) *Hunter {
	systems := cfg.Systems
	if len(systems) == 0 {
		systems = experiment.Systems()
	}
	return &Hunter{
		cfg:     cfg,
		systems: systems,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		seen:    map[string]bool{},
		found:   map[string]bool{},
	}
}

func (h *Hunter) logf(format string, args ...any) {
	if h.cfg.Log != nil {
		h.cfg.Log(format, args...)
	}
}

// Cost prices one candidate: virtual seconds × population × audited
// systems. It is the unit Budget is denominated in.
func Cost(s *experiment.ScenarioSpec, systems int) int64 {
	p := s.Params()
	nodes := p.Topology.Users
	for _, fc := range p.FlashCrowds {
		nodes += fc.Users
	}
	nodes += 4 // Manager, Registries, Backup: the infrastructure floor
	return int64(sim.Time(p.RunDuration).Sec()) * int64(nodes) * int64(systems)
}

// seedCorpus is the hand-written starting population: one spec per
// fault family, so the first generation already spans the dimensions
// the mutators perturb.
func seedCorpus() []*experiment.ScenarioSpec {
	return []*experiment.ScenarioSpec{
		{Seed: 1}, // the paper's design, unperturbed
		{Seed: 2, DurationSec: 12000,
			Partitions: []experiment.SpecPartition{{StartSec: 3000, DurationSec: 2000}}},
		{Seed: 3, Churn: experiment.SpecChurn{Departures: 1, MeanAbsenceSec: 600, Arrivals: 2}},
		{Seed: 4, Link: experiment.SpecLink{BurstAvg: 0.15, BurstLen: 8, DelayDist: "pareto"}},
		{Seed: 5, FlashCrowds: []experiment.SpecFlashCrowd{{AtSec: 1500, Users: 10, WindowSec: 20}},
			RackFailures: experiment.SpecRacks{Racks: 3, Fail: 1, WindowStartSec: 500,
				WindowEndSec: 2500, DurationSec: 300, SpreadSec: 5}},
	}
}

// Run executes the hunt: seed corpus first, then mutate-and-audit until
// the budget or iteration cap is hit, then minimize every finding.
func (h *Hunter) Run() *Report {
	seeds := append(seedCorpus(), h.cfg.Corpus...)
	for _, s := range seeds {
		if !h.execute(s) {
			break
		}
	}
	for h.cfg.Iters <= 0 || h.candidates < len(seeds)+h.cfg.Iters {
		if (h.cfg.Budget <= 0 && h.cfg.Iters <= 0) || len(h.corpus) == 0 {
			break // unbounded hunt, or no corpus survived the budget
		}
		parent := h.corpus[h.rng.Intn(len(h.corpus))]
		if !h.execute(mutate(h.rng, parent)) {
			break
		}
	}
	for _, f := range h.findings {
		f.Minimized = h.minimize(f)
	}
	return h.report()
}

// execute audits one candidate on every system; false means the budget
// is exhausted and the search loop must stop.
func (h *Hunter) execute(spec *experiment.ScenarioSpec) bool {
	if h.cfg.Harden {
		// Stamped on the spec (not just the run options) so the flag
		// survives minimization and lands in written fixtures/corpus.
		spec.Hardened = true
	}
	for _, sys := range h.systems {
		if err := spec.Params().CheckOutages(sys); err != nil {
			// A mutation shrank the population under an outage's User.
			h.logf("candidate skipped: %v", err)
			return true
		}
	}
	cost := Cost(spec, len(h.systems))
	if h.cfg.Budget > 0 && h.spent+cost > h.cfg.Budget {
		return false
	}
	h.spent += cost
	h.candidates++
	fresh := 0
	for _, sys := range h.systems {
		st := h.runOne(spec, sys)
		h.runs++
		for _, key := range coverageKeys(sys, st) {
			if !h.seen[key] {
				h.seen[key] = true
				fresh++
			}
		}
		for inv, n := range st.Report.ByInvariant {
			if n > 0 {
				h.noteFinding(spec, sys, verify.Invariant(inv), n)
			}
		}
	}
	if fresh > 0 || len(h.corpus) == 0 {
		h.corpus = append(h.corpus, spec)
		h.logf("candidate %d: +%d coverage keys (corpus %d, cost %d/%d)",
			h.candidates, fresh, len(h.corpus), h.spent, h.cfg.Budget)
	}
	return true
}

// runOne audits one (spec, system) pair through verify.ObserveRun and
// reads the network counters out of the scenario Attach captured. The
// scenario borrows pooled storage that the next run recycles; the hunt
// is one sequential loop, so nothing runs between the two.
func (h *Hunter) runOne(spec *experiment.ScenarioSpec, sys experiment.System) runStats {
	rs := spec.RunSpec(sys)
	var sc *experiment.Scenario
	rs.Attach = func(s *experiment.Scenario) { sc = s }
	cfg := verify.DefaultOracleConfig(sys)
	if h.cfg.Oracle != nil {
		cfg = h.cfg.Oracle(sys)
	}
	rep, res := verify.ObserveRun(rs, cfg)
	ctr := sc.Net.Counters()
	return runStats{
		Report:    rep,
		PerKind:   ctr.PerKind(),
		Drops:     ctr.Drops,
		Effort:    res.Effort,
		Unreached: res.Unreached(),
	}
}

// noteFinding records the first witness per (system, invariant) pair;
// later witnesses only feed coverage.
func (h *Hunter) noteFinding(spec *experiment.ScenarioSpec, sys experiment.System, inv verify.Invariant, n int) {
	key := sys.Short() + "/" + inv.String()
	if h.found[key] {
		return
	}
	h.found[key] = true
	h.findings = append(h.findings, &Finding{System: sys, Invariant: inv, Count: n, Spec: spec})
	h.logf("VIOLATION %s ×%d on %s (candidate %d)", inv, n, sys.Short(), h.candidates)
}

func (h *Hunter) report() *Report {
	rep := &Report{
		Seed:         h.cfg.Seed,
		Candidates:   h.candidates,
		Runs:         h.runs,
		MinimizeRuns: h.minRuns,
		CostSpent:    h.spent,
		CostBudget:   h.cfg.Budget,
		CorpusSize:   len(h.corpus),
		CoverageKeys: len(h.seen),
		Findings:     []FindingReport{},
	}
	for _, f := range h.findings {
		rep.Findings = append(rep.Findings, FindingReport{
			System:    f.System.Short(),
			Invariant: f.Invariant.String(),
			Count:     f.Count,
		})
	}
	return rep
}

// Corpus returns the coverage-increasing specs, in discovery order.
func (h *Hunter) Corpus() []*experiment.ScenarioSpec { return h.corpus }

// Fixtures renders every finding as a committable fixture.
func (h *Hunter) Fixtures() []*Fixture {
	var out []*Fixture
	for _, f := range h.findings {
		out = append(out, &Fixture{
			Comment: fmt.Sprintf("hunted: %s on %s (seed %d); replays by seed alone",
				f.Invariant, f.System.Short(), f.Minimized.Seed),
			System:   f.System.Short(),
			Scenario: *f.Minimized,
			Expect:   Expect{Invariant: f.Invariant.String(), MinCount: 1},
		})
	}
	return out
}
