package hunt

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/verify"
)

func TestLogBucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1000: 10}
	for n, want := range cases {
		if got := logBucket(n); got != want {
			t.Errorf("logBucket(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCostModel(t *testing.T) {
	zero := &experiment.ScenarioSpec{}
	// Paper default: 5400s × (5 users + 4 infra) × 5 systems.
	if got := Cost(zero, 5); got != 5400*9*5 {
		t.Errorf("zero-spec cost = %d, want %d", got, 5400*9*5)
	}
	crowd := &experiment.ScenarioSpec{
		DurationSec: 7200,
		Topology:    experiment.SpecTopology{Users: 10},
		FlashCrowds: []experiment.SpecFlashCrowd{{AtSec: 100, Users: 6}},
	}
	if got := Cost(crowd, 1); got != 7200*20 {
		t.Errorf("crowd cost = %d, want %d", got, 7200*20)
	}
}

// Every mutation chain must land inside the valid envelope, and any
// partition must leave the heal margin before the deadline.
func TestMutateStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := &experiment.ScenarioSpec{Seed: 1}
	for i := 0; i < 300; i++ {
		s = mutate(rng, s)
		if err := s.Validate(); err != nil {
			t.Fatalf("mutation %d produced invalid spec: %v\n%+v", i, err, s)
		}
		for _, p := range s.Partitions {
			if end := p.StartSec + p.DurationSec; end+healMarginSec > durationSec(s) {
				t.Fatalf("mutation %d: partition heals at %v, run ends %v: probe would never fire",
					i, end, durationSec(s))
			}
		}
	}
}

// The acceptance bar: two hunts with the same seed and budget produce
// the identical corpus, coverage fingerprint and report.
func TestHuntDeterministic(t *testing.T) {
	cfg := Config{
		Seed:    1,
		Budget:  500_000, // ≈ 10 single-system candidates
		Systems: []experiment.System{experiment.UPnP},
	}
	a, b := New(cfg), New(cfg)
	ra, rb := a.Run(), b.Run()
	ja, _ := json.Marshal(ra)
	jb, _ := json.Marshal(rb)
	if string(ja) != string(jb) {
		t.Errorf("reports diverge:\n%s\n%s", ja, jb)
	}
	if !reflect.DeepEqual(a.seen, b.seen) {
		t.Error("coverage fingerprints diverge")
	}
	if len(a.Corpus()) != len(b.Corpus()) {
		t.Fatalf("corpus sizes diverge: %d vs %d", len(a.Corpus()), len(b.Corpus()))
	}
	for i := range a.Corpus() {
		if !reflect.DeepEqual(a.Corpus()[i], b.Corpus()[i]) {
			t.Errorf("corpus entry %d diverges", i)
		}
	}
	if ra.Candidates < len(seedCorpus())+1 {
		t.Errorf("budget admitted only %d candidates; the hunt never mutated", ra.Candidates)
	}
	if ra.CostSpent > ra.CostBudget {
		t.Errorf("overspent: %d > %d", ra.CostSpent, ra.CostBudget)
	}
	if ra.CoverageKeys == 0 || ra.CorpusSize == 0 {
		t.Errorf("empty coverage after a real hunt: %+v", ra)
	}
}

// tightCentral plants a guaranteed violation: a CentralWindow of one
// tick means no Registry claim is ever "live" at the heal probe, so any
// partitioned FRODO run trips single-central. The hunt must find it,
// minimize it, and the minimized spec must keep the partition (dropping
// it would drop the probe and lose the violation).
func tightCentral(sys experiment.System) verify.OracleConfig {
	cfg := verify.DefaultOracleConfig(sys)
	cfg.CentralWindow = sim.Duration(1)
	return cfg
}

func TestHuntFindsAndMinimizesPlantedViolation(t *testing.T) {
	h := New(Config{
		Seed:    1,
		Iters:   2,
		Systems: []experiment.System{experiment.Frodo2P},
		Oracle:  tightCentral,
	})
	rep := h.Run()
	if rep.Clean() {
		t.Fatal("hunt missed the planted single-central violation")
	}
	var f *Finding
	for _, cand := range h.findings {
		if cand.Invariant == verify.InvSingleCentral {
			f = cand
		}
	}
	if f == nil {
		t.Fatalf("no single-central finding: %+v", rep.Findings)
	}
	min := f.Minimized
	if min == nil {
		t.Fatal("finding not minimized")
	}
	if len(min.Partitions) == 0 {
		t.Errorf("minimizer dropped the partition the violation needs: %+v", min)
	}
	if min.Churn != (experiment.SpecChurn{}) || min.Link != (experiment.SpecLink{}) ||
		min.Lambda != 0 || len(min.FlashCrowds) != 0 {
		t.Errorf("minimizer kept irrelevant fault dimensions: %+v", min)
	}
	// Seed-determinism of the reduction: rerunning the minimized spec
	// reproduces the same invariant violation by seed alone.
	st := h.runOne(min, f.System)
	if st.Report.ByInvariant[verify.InvSingleCentral] == 0 {
		t.Errorf("minimized spec does not replay its violation: %s", st.Report)
	}

	fixtures := h.Fixtures()
	if len(fixtures) != len(h.findings) {
		t.Fatalf("%d fixtures for %d findings", len(fixtures), len(h.findings))
	}
	fx := fixtures[0]
	if err := fx.Validate(); err != nil {
		t.Errorf("generated fixture invalid: %v", err)
	}
	data, err := fx.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Error("fixture encoding not newline-terminated")
	}
}

// A hunt whose budget cannot even cover the seed corpus stops cleanly.
func TestHuntTinyBudget(t *testing.T) {
	h := New(Config{Seed: 1, Budget: 1, Systems: []experiment.System{experiment.UPnP}})
	rep := h.Run()
	if rep.Candidates != 0 || rep.CostSpent != 0 {
		t.Errorf("tiny budget still ran candidates: %+v", rep)
	}
}

// Config.Corpus resumes a hunt from extra seed specs; Config.Harden
// stamps every candidate — and so every corpus entry and fixture — as
// hardened, so a hardened hunt's outputs replay hardened.
func TestHuntCorpusAndHarden(t *testing.T) {
	extra := &experiment.ScenarioSpec{Seed: 42, DurationSec: 6000,
		Churn: experiment.SpecChurn{Departures: 1}}
	cfg := Config{
		Seed:    1,
		Iters:   2,
		Harden:  true,
		Corpus:  []*experiment.ScenarioSpec{extra},
		Systems: []experiment.System{experiment.UPnP},
	}
	h := New(cfg)
	rep := h.Run()
	wantCand := len(seedCorpus()) + 1 + cfg.Iters
	if rep.Candidates != wantCand {
		t.Errorf("candidates = %d, want %d (builtin seeds + 1 resumed + %d mutated)",
			rep.Candidates, wantCand, cfg.Iters)
	}
	if len(h.Corpus()) == 0 {
		t.Fatal("hunt kept no corpus")
	}
	for i, s := range h.Corpus() {
		if !s.Hardened {
			t.Errorf("corpus[%d] not stamped hardened", i)
		}
	}
	for _, fx := range h.Fixtures() {
		if !fx.Scenario.Hardened {
			t.Errorf("fixture for %s/%s not stamped hardened", fx.System, fx.Expect.Invariant)
		}
	}
}

// A candidate whose outage names a User its population lacks is skipped,
// not run (the run would panic with no node to fail), and never enters
// the corpus.
func TestHuntSkipsUnresolvableOutage(t *testing.T) {
	bad := &experiment.ScenarioSpec{Seed: 7, Outages: []experiment.SpecOutage{
		{Node: "user:9", Mode: "both", StartSec: 100, DurationSec: 60}}}
	h := New(Config{Seed: 1, Iters: 1, Corpus: []*experiment.ScenarioSpec{bad},
		Systems: []experiment.System{experiment.UPnP}})
	h.Run()
	for _, s := range h.Corpus() {
		if s == bad {
			t.Error("the unresolvable spec entered the corpus")
		}
	}
}
