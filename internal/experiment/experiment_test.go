package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frodo"
	"repro/internal/jini"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/upnp"
)

func fastParams(runs int, lambdas []float64) Params {
	p := DefaultParams()
	p.Runs = runs
	p.Lambdas = lambdas
	return p
}

func TestParseSystem(t *testing.T) {
	for _, sys := range Systems() {
		got, err := ParseSystem(sys.Short())
		if err != nil || got != sys {
			t.Errorf("ParseSystem(%q) = %v, %v", sys.Short(), got, err)
		}
	}
	if _, err := ParseSystem("nope"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestDefaultLambdas(t *testing.T) {
	ls := DefaultLambdas()
	if len(ls) != 19 || ls[0] != 0 || ls[18] != 0.9 {
		t.Errorf("lambdas = %v", ls)
	}
}

// Every system reaches full consistency with the paper's m' message
// counts at zero failure — the Table 2 integration check. The effort of
// a single run can exceed m' when an unrelated periodic exchange (an
// announcement train, a renewal) happens to land inside the short
// recovery window, so m' is measured the way the sweep measures it: the
// minimum effort across runs. Each run must still be at least m' — the
// update process cannot take fewer messages than the protocol minimum.
func TestZeroFailureReproducesPaperMPrime(t *testing.T) {
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.Short(), func(t *testing.T) {
			minEffort := 1 << 30
			for seed := int64(1); seed <= 5; seed++ {
				res := Run(RunSpec{System: sys, Lambda: 0, Seed: seed, Params: DefaultParams()})
				for _, u := range res.Users {
					if !u.Reached {
						t.Fatalf("seed %d: user %d never consistent at λ=0", seed, u.User)
					}
					if u.At < res.ChangeAt || u.At > res.ChangeAt+sim.Second {
						t.Errorf("seed %d: user %d consistent at %v, change at %v",
							seed, u.User, u.At, res.ChangeAt)
					}
				}
				if res.Effort < PaperMPrime(sys) {
					t.Errorf("seed %d: effort %d below paper m' %d", seed, res.Effort, PaperMPrime(sys))
				}
				if res.Effort < minEffort {
					minEffort = res.Effort
				}
			}
			if minEffort != PaperMPrime(sys) {
				t.Errorf("min effort %d, want paper m' %d", minEffort, PaperMPrime(sys))
			}
		})
	}
}

// Runs replay exactly: identical seeds produce identical observations.
func TestRunDeterminism(t *testing.T) {
	for _, sys := range Systems() {
		spec := RunSpec{System: sys, Lambda: 0.3, Seed: 42, Params: DefaultParams()}
		a := Run(spec)
		b := Run(spec)
		if a.ChangeAt != b.ChangeAt || a.Effort != b.Effort || len(a.Users) != len(b.Users) {
			t.Fatalf("%v: runs diverge: %+v vs %+v", sys, a, b)
		}
		for i := range a.Users {
			if a.Users[i] != b.Users[i] {
				t.Errorf("%v: user %d diverged: %+v vs %+v", sys, i, a.Users[i], b.Users[i])
			}
		}
	}
}

// Different seeds vary the change time and outcomes.
func TestRunSeedsVary(t *testing.T) {
	a := Run(RunSpec{System: UPnP, Lambda: 0, Seed: 1, Params: DefaultParams()})
	b := Run(RunSpec{System: UPnP, Lambda: 0, Seed: 2, Params: DefaultParams()})
	if a.ChangeAt == b.ChangeAt {
		t.Error("different seeds drew the same change time")
	}
}

// A mini-sweep sanity check: metrics near 1 at λ=0 and degrading with λ,
// and the aggregation wiring (m, m', curves) consistent.
func TestMiniSweep(t *testing.T) {
	res := Sweep(SweepConfig{
		Systems: Systems(),
		Params:  fastParams(4, []float64{0, 0.5}),
		Workers: 4,
	})
	if res.M != 7 {
		t.Errorf("m = %d, want 7 (Jini/FRODO minimum)", res.M)
	}
	for _, sys := range Systems() {
		if res.MPrime[sys] != PaperMPrime(sys) {
			t.Errorf("%v: measured m' = %d, paper %d", sys, res.MPrime[sys], PaperMPrime(sys))
		}
		curve := res.Curves[sys]
		if len(curve.Points) != 2 {
			t.Fatalf("%v: %d points", sys, len(curve.Points))
		}
		zero := curve.Points[0]
		if zero.Effectiveness != 1 {
			t.Errorf("%v: effectiveness at λ=0 = %v, want 1", sys, zero.Effectiveness)
		}
		if zero.Responsiveness < 0.99 {
			t.Errorf("%v: responsiveness at λ=0 = %v, want ~1", sys, zero.Responsiveness)
		}
		// Background renewals occasionally land inside the effort window
		// (the change time is random), so λ=0 degradation is near 1 but
		// not exactly 1 in every run.
		if zero.Degradation < 0.8 {
			t.Errorf("%v: degradation at λ=0 = %v, want ~1", sys, zero.Degradation)
		}
		half := curve.Points[1]
		if half.Effectiveness >= zero.Effectiveness {
			t.Errorf("%v: effectiveness did not degrade: %v -> %v",
				sys, zero.Effectiveness, half.Effectiveness)
		}
	}
}

// Sweep determinism: identical configs produce identical curves
// regardless of worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := func(workers int) SweepConfig {
		return SweepConfig{
			Systems: []System{UPnP, Frodo2P},
			Params:  fastParams(3, []float64{0, 0.4}),
			Workers: workers,
		}
	}
	a := Sweep(cfg(1))
	b := Sweep(cfg(8))
	for _, sys := range []System{UPnP, Frodo2P} {
		pa, pb := a.Curves[sys].Points, b.Curves[sys].Points
		for i := range pa {
			if pa[i] != pb[i] {
				t.Errorf("%v point %d differs across worker counts: %+v vs %+v", sys, i, pa[i], pb[i])
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	res := Sweep(SweepConfig{
		Systems: []System{UPnP},
		Params:  fastParams(2, []float64{0}),
		Workers: 2,
	})
	for _, tab := range []Table{Figure4(res), Figure5(res), Figure6(res), Table5(res)} {
		s := tab.String()
		if !strings.Contains(s, "upnp") {
			t.Errorf("table missing system column: %s", s)
		}
		csv := tab.CSV()
		if !strings.Contains(csv, "failure%") && !strings.Contains(csv, "Update Metric") {
			t.Errorf("csv missing header: %s", csv)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	tab := Table2(DefaultParams(), Options{})
	if len(tab.Rows) != 5 {
		t.Fatalf("Table2 has %d rows", len(tab.Rows))
	}
	// The measured column must match the paper column for every system.
	for _, row := range tab.Rows {
		if row[1] != row[2] {
			t.Errorf("%s: measured %s != paper %s", row[0], row[1], row[2])
		}
	}
}

func TestProgressCallback(t *testing.T) {
	calls := 0
	lastDone, lastTotal := 0, 0
	Sweep(SweepConfig{
		Systems:  []System{UPnP},
		Params:   fastParams(2, []float64{0}),
		Workers:  1,
		Progress: func(done, total int) { calls++; lastDone, lastTotal = done, total },
	})
	if calls != 2 || lastDone != 2 || lastTotal != 2 {
		t.Errorf("progress: calls=%d done=%d total=%d", calls, lastDone, lastTotal)
	}
}

// Each protocol option reaches the run and changes it the way its
// mechanism says it must.
func TestOptionsReachTheRun(t *testing.T) {
	reached := func(res metrics.RunResult) int {
		n := 0
		for _, u := range res.Users {
			if u.Reached {
				n++
			}
		}
		return n
	}
	threeChanges := DefaultParams()
	threeChanges.Changes = 3

	t.Run("multi-change", func(t *testing.T) {
		res := Run(RunSpec{System: Frodo2P, Lambda: 0, Seed: 5, Params: threeChanges})
		if n := reached(res); n != len(res.Users) {
			t.Errorf("%d/%d users reached version 4 after 3 changes", n, len(res.Users))
		}
	})
	t.Run("critical-updates", func(t *testing.T) {
		res := Run(RunSpec{System: Frodo2P, Lambda: 0, Seed: 5, Params: threeChanges,
			Opts: Options{Frodo: func(c *frodo.Config) { c.CriticalUpdates = true }}})
		if n := reached(res); n != len(res.Users) {
			t.Errorf("critical mode: %d/%d users consistent", n, len(res.Users))
		}
	})
	t.Run("loss", func(t *testing.T) {
		res := Run(RunSpec{System: Frodo2P, Lambda: 0, Seed: 5, Params: DefaultParams(),
			Opts: Options{Loss: 0.2}})
		if n := reached(res); n < 4 {
			t.Errorf("only %d/5 users consistent at 20%% loss; SRN1 should carry FRODO", n)
		}
	})
	t.Run("polling", func(t *testing.T) {
		spec := RunSpec{System: UPnP, Lambda: 0, Seed: 2, Params: DefaultParams()}
		base := Run(spec)
		spec.Opts = Options{
			UPnP:  func(c *upnp.Config) { c.PollPeriod = 600 * sim.Second },
			Jini:  func(c *jini.Config) { c.PollPeriod = 600 * sim.Second },
			Frodo: func(c *frodo.Config) { c.PollPeriod = 600 * sim.Second },
		}
		polled := Run(spec)
		if n := reached(polled); n != len(polled.Users) {
			t.Errorf("polling run: %d/%d users consistent at λ=0", n, len(polled.Users))
		}
		if polled.TotalDiscoverySends <= base.TotalDiscoverySends {
			t.Errorf("polling sends (%d) not above notification-only (%d)",
				polled.TotalDiscoverySends, base.TotalDiscoverySends)
		}
	})
	t.Run("ablation", func(t *testing.T) {
		cfg := SweepConfig{Systems: []System{Frodo2P}, Params: fastParams(6, []float64{0.15})}
		fb := Sweep(cfg).Curves[Frodo2P].Points[0].Effectiveness
		cfg.Opts = Options{Frodo: func(c *frodo.Config) {
			c.Techniques = c.Techniques.Without(core.SRN2 | core.PR4 | core.PR1)
		}}
		fa := Sweep(cfg).Curves[Frodo2P].Points[0].Effectiveness
		if fa > fb {
			t.Errorf("ablating SRN2+PR4+PR1 improved effectiveness: %v > %v", fa, fb)
		}
	})
}
