// Benchmarks regenerating the paper's evaluation (§6), one per table and
// figure, plus the ablations DESIGN.md calls out. Each runs a reduced
// sweep per iteration (fewer runs per point than the paper's X=30 — use
// cmd/sdsweep for full scale) and reports the headline series as custom
// benchmark metrics, so `go test -bench=.` doubles as a smoke
// reproduction.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/experiment"
	"repro/sdsim"
)

// benchParams is the reduced design used per benchmark iteration.
func benchParams(runs int, lambdas ...float64) sdsim.Params {
	p := sdsim.DefaultParams()
	p.Runs = runs
	if len(lambdas) > 0 {
		p.Lambdas = lambdas
	} else {
		p.Lambdas = []float64{0, 0.15, 0.30, 0.60, 0.90}
	}
	return p
}

// BenchmarkFigure4Effectiveness regenerates Fig. 4: Average Update
// Effectiveness vs interface failure rate for the five systems.
func BenchmarkFigure4Effectiveness(b *testing.B) {
	var res sdsim.SweepResult
	for i := 0; i < b.N; i++ {
		res = sdsim.Sweep(sdsim.SweepConfig{Params: benchParams(4)})
	}
	b.Logf("\n%s", sdsim.Figure4(res))
	for _, sys := range sdsim.Systems() {
		_, f, _ := res.Curves[sys].Average()
		b.ReportMetric(f, "F(avg)/"+sys.Short())
	}
}

// BenchmarkFigure5Responsiveness regenerates Fig. 5: Median Update
// Responsiveness vs interface failure rate.
func BenchmarkFigure5Responsiveness(b *testing.B) {
	var res sdsim.SweepResult
	for i := 0; i < b.N; i++ {
		res = sdsim.Sweep(sdsim.SweepConfig{Params: benchParams(4)})
	}
	b.Logf("\n%s", sdsim.Figure5(res))
	for _, sys := range sdsim.Systems() {
		r, _, _ := res.Curves[sys].Average()
		b.ReportMetric(r, "R(avg)/"+sys.Short())
	}
}

// BenchmarkFigure6EfficiencyDegradation regenerates Fig. 6: Efficiency
// Degradation vs interface failure rate, with the m' legend values.
func BenchmarkFigure6EfficiencyDegradation(b *testing.B) {
	var res sdsim.SweepResult
	for i := 0; i < b.N; i++ {
		res = sdsim.Sweep(sdsim.SweepConfig{Params: benchParams(4)})
	}
	b.Logf("\n%s", sdsim.Figure6(res))
	for _, sys := range sdsim.Systems() {
		_, _, g := res.Curves[sys].Average()
		b.ReportMetric(g, "G(avg)/"+sys.Short())
		b.ReportMetric(float64(res.MPrime[sys]), "mprime/"+sys.Short())
	}
}

// BenchmarkFigure7PR1Ablation regenerates Fig. 7: the PR1 control
// experiment on both FRODO systems.
func BenchmarkFigure7PR1Ablation(b *testing.B) {
	var with, without sdsim.SweepResult
	for i := 0; i < b.N; i++ {
		with, without = sdsim.Figure7Sweep(benchParams(4, 0.30, 0.60, 0.90), 0, nil)
	}
	b.Logf("\n%s", sdsim.Figure7(with, without))
	for _, sys := range []sdsim.System{sdsim.Frodo3P, sdsim.Frodo2P} {
		_, fw, _ := with.Curves[sys].Average()
		_, fo, _ := without.Curves[sys].Average()
		b.ReportMetric(fw, "F-withPR1/"+sys.Short())
		b.ReportMetric(fo, "F-noPR1/"+sys.Short())
	}
}

// BenchmarkTable2MessageCounts regenerates Table 2: the zero-failure
// update message counts (m' per system).
func BenchmarkTable2MessageCounts(b *testing.B) {
	var tab sdsim.Table
	for i := 0; i < b.N; i++ {
		tab = sdsim.Table2(sdsim.DefaultParams())
	}
	b.Logf("\n%s", tab)
	for _, sys := range sdsim.Systems() {
		res := sdsim.Run(sdsim.RunSpec{System: sys, Lambda: 0, Seed: 1, Params: sdsim.DefaultParams()})
		b.ReportMetric(float64(res.Effort), "y0/"+sys.Short())
	}
}

// BenchmarkTable5Averages regenerates Table 5: the metric averages across
// failure rates.
func BenchmarkTable5Averages(b *testing.B) {
	var res sdsim.SweepResult
	for i := 0; i < b.N; i++ {
		res = sdsim.Sweep(sdsim.SweepConfig{Params: benchParams(4)})
	}
	b.Logf("\n%s", sdsim.Table5(res))
}

// BenchmarkScenarioSRN2CaseStudy regenerates the §6.2 event-log scenario
// at λ=15%: a run under UPnP and the same under FRODO 2-party.
func BenchmarkScenarioSRN2CaseStudy(b *testing.B) {
	params := sdsim.DefaultParams()
	var upnpFail, frodoOK int
	for i := 0; i < b.N; i++ {
		upnpFail, frodoOK = 0, 0
		for seed := int64(1); seed <= 10; seed++ {
			ru := sdsim.Run(sdsim.RunSpec{System: sdsim.UPnP, Lambda: 0.15, Seed: seed, Params: params})
			rf := sdsim.Run(sdsim.RunSpec{System: sdsim.Frodo2P, Lambda: 0.15, Seed: seed, Params: params})
			for _, u := range ru.Users {
				if !u.Reached {
					upnpFail++
				}
			}
			for _, u := range rf.Users {
				if u.Reached {
					frodoOK++
				}
			}
		}
	}
	b.ReportMetric(float64(upnpFail), "upnp-users-lost/10runs")
	b.ReportMetric(float64(frodoOK), "frodo2p-users-ok/10runs")
}

// BenchmarkSingleRun measures the raw cost of one 5400-virtual-second
// scenario per system at λ=0.30 — the unit of work the sweeps
// parallelize.
func BenchmarkSingleRun(b *testing.B) {
	for _, sys := range sdsim.Systems() {
		sys := sys
		b.Run(sys.Short(), func(b *testing.B) {
			params := sdsim.DefaultParams()
			for i := 0; i < b.N; i++ {
				sdsim.Run(sdsim.RunSpec{System: sys, Lambda: 0.30,
					Seed: int64(i + 1), Params: params})
			}
		})
	}
}

// paperRunBudgets are the heap-allocation budgets of one warm paper-scale
// run (N=5 Users, λ=0.30, a reused Workspace) for the three systems that
// ride on the TCP transport. What is left is payload boxing in the
// protocol handlers and one TCPConn per exchange; a frame, a timer or a
// lease renewal that allocates again blows these several times over.
var paperRunBudgets = []struct {
	sys    experiment.System
	allocs float64
}{
	{experiment.UPnP, 200},
	{experiment.Jini1, 300},
	{experiment.Jini2, 500},
}

// paperRun returns a function that performs the i-th warm paper-scale run
// of sys on one Workspace.
func paperRun(sys experiment.System) func(i int) {
	ws := experiment.NewWorkspace()
	params := experiment.DefaultParams()
	run := func(i int) {
		experiment.RunInto(ws, experiment.RunSpec{System: sys, Lambda: 0.30, Seed: int64(i + 1), Params: params})
	}
	for i := 0; i < 5; i++ {
		run(-1 - i) // build cold, grow the pools
	}
	return run
}

// BenchmarkPaperRun measures the unit of work of a paper sweep: one
// 5400-virtual-second run on a reused Workspace, per TCP-based system.
func BenchmarkPaperRun(b *testing.B) {
	for _, c := range paperRunBudgets {
		b.Run(c.sys.Short(), func(b *testing.B) {
			run := paperRun(c.sys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
		})
	}
}

func TestPaperRunAllocBudgets(t *testing.T) {
	for _, c := range paperRunBudgets {
		run := paperRun(c.sys)
		i := 0
		if got := testing.AllocsPerRun(50, func() { run(i); i++ }); got > c.allocs {
			t.Errorf("%s: %.0f allocs per warm paper-scale run, budget %.0f", c.sys.Short(), got, c.allocs)
		}
	}
}

// BenchmarkSweepScale measures the scenario engine at population scale:
// a FRODO 2-party sweep (λ ∈ {0, 0.30}, 2 runs per point) with churn at
// N=100 and N=1000 Users — the first points of the perf trajectory
// EXPERIMENTS.md records. Guarded so `go test -short -bench` stays fast.
func BenchmarkSweepScale(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			if testing.Short() {
				b.Skip("scale benchmark skipped in short mode")
			}
			p := sdsim.DefaultParams()
			p.Runs = 2
			p.Lambdas = []float64{0, 0.30}
			p.Topology = sdsim.Topology{Users: n}
			p.Churn = sdsim.Churn{Departures: 0.3, MeanAbsence: 600 * sdsim.Second,
				Arrivals: float64(n) / 20}
			var res sdsim.SweepResult
			for i := 0; i < b.N; i++ {
				res = sdsim.Sweep(sdsim.SweepConfig{
					Systems: []sdsim.System{sdsim.Frodo2P}, Params: p})
			}
			_, f, _ := res.Curves[sdsim.Frodo2P].Average()
			b.ReportMetric(f, "F(avg)")
			b.ReportMetric(float64(res.MPrime[sdsim.Frodo2P]), "mprime")
		})
	}
}

// BenchmarkSingleRunScale measures one 5400-virtual-second FRODO run at
// growing N — the unit of work whose cost bounds any sweep.
func BenchmarkSingleRunScale(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			if testing.Short() {
				b.Skip("scale benchmark skipped in short mode")
			}
			p := sdsim.DefaultParams()
			p.Topology = sdsim.Topology{Users: n}
			for i := 0; i < b.N; i++ {
				sdsim.Run(sdsim.RunSpec{System: sdsim.Frodo2P, Lambda: 0.30,
					Seed: int64(i + 1), Params: p})
			}
		})
	}
}

// BenchmarkAblationSRN2 quantifies the paper's headline technique: FRODO
// 2-party with and without SRN2 at low failure rates, where the paper
// shows SRN2 dominating (Fig. 4(i)).
func BenchmarkAblationSRN2(b *testing.B) {
	params := benchParams(6, 0.10, 0.20, 0.30)
	systems := []sdsim.System{sdsim.Frodo2P}
	var fWith, fWithout float64
	for i := 0; i < b.N; i++ {
		with := sdsim.Sweep(sdsim.SweepConfig{Systems: systems, Params: params})
		without := sdsim.Sweep(sdsim.SweepConfig{Systems: systems, Params: params,
			Opts: sdsim.AblateFrodo(sdsim.SRN2)})
		_, fWith, _ = with.Curves[sdsim.Frodo2P].Average()
		_, fWithout, _ = without.Curves[sdsim.Frodo2P].Average()
	}
	b.ReportMetric(fWith, "F-withSRN2")
	b.ReportMetric(fWithout, "F-noSRN2")
}

// BenchmarkAblationPR3PR4 removes the resubscription-request recoveries
// from both FRODO modes.
func BenchmarkAblationPR3PR4(b *testing.B) {
	params := benchParams(6, 0.30, 0.60)
	systems := []sdsim.System{sdsim.Frodo3P, sdsim.Frodo2P}
	var with, without sdsim.SweepResult
	for i := 0; i < b.N; i++ {
		with = sdsim.Sweep(sdsim.SweepConfig{Systems: systems, Params: params})
		without = sdsim.Sweep(sdsim.SweepConfig{Systems: systems, Params: params,
			Opts: sdsim.AblateFrodo(sdsim.PR3 | sdsim.PR4)})
	}
	for _, sys := range systems {
		_, fw, _ := with.Curves[sys].Average()
		_, fo, _ := without.Curves[sys].Average()
		b.ReportMetric(fw, "F-with/"+sys.Short())
		b.ReportMetric(fo, "F-ablated/"+sys.Short())
	}
}

// BenchmarkAblationAnnouncePeriod sweeps the Central announcement period
// — the design parameter §5 Step 4 discusses ("short enough for the
// discovery process, but long enough [not to] imbalance the system").
func BenchmarkAblationAnnouncePeriod(b *testing.B) {
	params := benchParams(6, 0.60)
	for _, period := range []sdsim.Duration{600 * sdsim.Second, 1200 * sdsim.Second, 2400 * sdsim.Second} {
		period := period
		var f float64
		for i := 0; i < b.N; i++ {
			res := sdsim.Sweep(sdsim.SweepConfig{
				Systems: []sdsim.System{sdsim.Frodo3P},
				Params:  params,
				Opts:    sdsim.WithFrodoAnnouncePeriod(period),
			})
			_, f, _ = res.Curves[sdsim.Frodo3P].Average()
		}
		b.ReportMetric(f, "F/announce="+period.String())
	}
}

// BenchmarkCriticalUpdateMode compares the non-critical (SRN1+SRN2) and
// critical (SRC1+SRC2) configurations of §4.3.
func BenchmarkCriticalUpdateMode(b *testing.B) {
	params := benchParams(6, 0.30, 0.60)
	systems := []sdsim.System{sdsim.Frodo2P}
	var fn, fc float64
	for i := 0; i < b.N; i++ {
		normal := sdsim.Sweep(sdsim.SweepConfig{Systems: systems, Params: params})
		critical := sdsim.Sweep(sdsim.SweepConfig{Systems: systems, Params: params,
			Opts: sdsim.CriticalUpdates()})
		_, fn, _ = normal.Curves[sdsim.Frodo2P].Average()
		_, fc, _ = critical.Curves[sdsim.Frodo2P].Average()
	}
	b.ReportMetric(fn, "F-noncritical")
	b.ReportMetric(fc, "F-critical")
}

// BenchmarkGuaranteeGrid checks the Configuration Update Principles over
// the single-outage grid for one FRODO and one first-generation system —
// the paper's guarantee claims as a benchmark ([24], [8]).
func BenchmarkGuaranteeGrid(b *testing.B) {
	grid := sdsim.DefaultGuaranteeGrid()
	var frodo, upnp sdsim.GuaranteeResult
	for i := 0; i < b.N; i++ {
		frodo = sdsim.CheckGuarantees(sdsim.Frodo2P, grid)
		upnp = sdsim.CheckGuarantees(sdsim.UPnP, grid)
	}
	b.ReportMetric(float64(len(frodo.Violations)), "violations/frodo2p")
	b.ReportMetric(float64(len(upnp.Violations)), "violations/upnp")
}

// BenchmarkPollingVsNotification quantifies CM2 (§4.2): persistent
// polling repairs missed notifications (higher F) while burning
// redundant messages (lower G) — "polling is the more effective method
// if the application allows persistent polling ... [but] slower" and
// wasteful for rarely-changing services.
func BenchmarkPollingVsNotification(b *testing.B) {
	params := benchParams(6, 0.15, 0.30)
	systems := []sdsim.System{sdsim.UPnP, sdsim.Frodo2P}
	var base, polled sdsim.SweepResult
	for i := 0; i < b.N; i++ {
		base = sdsim.Sweep(sdsim.SweepConfig{Systems: systems, Params: params})
		polled = sdsim.Sweep(sdsim.SweepConfig{Systems: systems, Params: params,
			Opts: sdsim.WithPolling(600 * sdsim.Second)})
	}
	for _, sys := range systems {
		_, fb, gb := base.Curves[sys].Average()
		_, fp, gp := polled.Curves[sys].Average()
		b.ReportMetric(fb, "F-notify/"+sys.Short())
		b.ReportMetric(fp, "F-poll/"+sys.Short())
		b.ReportMetric(gb, "G-notify/"+sys.Short())
		b.ReportMetric(gp, "G-poll/"+sys.Short())
	}
}

// BenchmarkMessageLossModel runs the companion failure model [25]: i.i.d.
// frame loss instead of interface failure.
func BenchmarkMessageLossModel(b *testing.B) {
	params := benchParams(6, 0)
	var fU, fF float64
	for i := 0; i < b.N; i++ {
		res := sdsim.Sweep(sdsim.SweepConfig{
			Systems: []sdsim.System{sdsim.UPnP, sdsim.Frodo2P},
			Params:  params,
			Opts:    sdsim.WithLoss(0.2),
		})
		_, fU, _ = res.Curves[sdsim.UPnP].Average()
		_, fF, _ = res.Curves[sdsim.Frodo2P].Average()
	}
	b.ReportMetric(fU, "F-upnp@20%loss")
	b.ReportMetric(fF, "F-frodo2p@20%loss")
}
