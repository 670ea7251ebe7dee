// Benchmarks for the ablations and extensions DESIGN.md calls out, and
// the unit of work of a paper sweep. Each ablation runs a reduced sweep
// per iteration (fewer runs per point than the paper's X=30) and reports
// its headline series as custom benchmark metrics. The paper's tables
// and figures themselves are regenerated by `sdsweep -figure`, and the
// end-to-end workloads by `go run ./benchmark`.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/frodo"
	"repro/internal/jini"
	"repro/internal/sim"
	"repro/internal/upnp"
	"repro/internal/verify"
)

// benchParams is the reduced design used per benchmark iteration.
func benchParams(runs int, lambdas ...float64) experiment.Params {
	p := experiment.DefaultParams()
	p.Runs = runs
	p.Lambdas = lambdas
	return p
}

// withoutFrodo removes recovery techniques from FRODO only.
func withoutFrodo(ts core.TechniqueSet) experiment.Options {
	return experiment.Options{Frodo: func(c *frodo.Config) { c.Techniques = c.Techniques.Without(ts) }}
}

// BenchmarkScenarioSRN2CaseStudy regenerates the §6.2 event-log scenario
// at λ=15%: a run under UPnP and the same under FRODO 2-party.
func BenchmarkScenarioSRN2CaseStudy(b *testing.B) {
	params := experiment.DefaultParams()
	var upnpFail, frodoOK int
	for i := 0; i < b.N; i++ {
		upnpFail, frodoOK = 0, 0
		for seed := int64(1); seed <= 10; seed++ {
			ru := experiment.Run(experiment.RunSpec{System: experiment.UPnP, Lambda: 0.15, Seed: seed, Params: params})
			rf := experiment.Run(experiment.RunSpec{System: experiment.Frodo2P, Lambda: 0.15, Seed: seed, Params: params})
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

// paperRunBudgets are the heap-allocation budgets of one rearmed
// paper-scale run (N=5 Users, λ=0.30, a reused Workspace), per system,
// each with the value it measures beside it. TCP connections, reply
// transfers and frames are pooled, and packets are values carried inline
// in the frames, so what is left is content that is new per run: the
// changed description, the Registry's query answers, the run's outcome
// records. Before the TCP records were pooled and the UPnP and Jini
// payloads boxed once, the three TCP-based systems measured 145, 202 and
// 396; with payloads boxed (once) the five measured 12, 40, 69, 56, 46.
var paperRunBudgets = []struct {
	sys    experiment.System
	allocs float64
}{
	{experiment.UPnP, 11},    // measures 9
	{experiment.Jini1, 31},   // measures 27
	{experiment.Jini2, 52},   // measures 45
	{experiment.Frodo3P, 17}, // measures 15
	{experiment.Frodo2P, 21}, // measures 18
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
// 5400-virtual-second run on a reused Workspace, per system.
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
		got := testing.AllocsPerRun(50, func() { run(i); i++ })
		t.Logf("%s: %.0f allocs per rearmed paper-scale run", c.sys.Short(), got)
		if got > c.allocs {
			t.Errorf("%s: %.0f allocs per warm paper-scale run, budget %.0f", c.sys.Short(), got, c.allocs)
		}
	}
}

// BenchmarkAblationSRN2 quantifies the paper's headline technique: FRODO
// 2-party with and without SRN2 at low failure rates, where the paper
// shows SRN2 dominating (Fig. 4(i)).
func BenchmarkAblationSRN2(b *testing.B) {
	params := benchParams(6, 0.10, 0.20, 0.30)
	systems := []experiment.System{experiment.Frodo2P}
	var fWith, fWithout float64
	for i := 0; i < b.N; i++ {
		with := experiment.Sweep(experiment.SweepConfig{Systems: systems, Params: params})
		without := experiment.Sweep(experiment.SweepConfig{Systems: systems, Params: params,
			Opts: withoutFrodo(core.SRN2)})
		_, fWith, _ = with.Curves[experiment.Frodo2P].Average()
		_, fWithout, _ = without.Curves[experiment.Frodo2P].Average()
	}
	b.ReportMetric(fWith, "F-withSRN2")
	b.ReportMetric(fWithout, "F-noSRN2")
}

// BenchmarkAblationPR3PR4 removes the resubscription-request recoveries
// from both FRODO modes.
func BenchmarkAblationPR3PR4(b *testing.B) {
	params := benchParams(6, 0.30, 0.60)
	systems := []experiment.System{experiment.Frodo3P, experiment.Frodo2P}
	var with, without experiment.SweepResult
	for i := 0; i < b.N; i++ {
		with = experiment.Sweep(experiment.SweepConfig{Systems: systems, Params: params})
		without = experiment.Sweep(experiment.SweepConfig{Systems: systems, Params: params,
			Opts: withoutFrodo(core.PR3 | core.PR4)})
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
	for _, period := range []sim.Duration{600 * sim.Second, 1200 * sim.Second, 2400 * sim.Second} {
		period := period
		var f float64
		for i := 0; i < b.N; i++ {
			res := experiment.Sweep(experiment.SweepConfig{
				Systems: []experiment.System{experiment.Frodo3P},
				Params:  params,
				Opts:    experiment.Options{Frodo: func(c *frodo.Config) { c.AnnouncePeriod = period }},
			})
			_, f, _ = res.Curves[experiment.Frodo3P].Average()
		}
		b.ReportMetric(f, "F/announce="+period.String())
	}
}

// BenchmarkCriticalUpdateMode compares the non-critical (SRN1+SRN2) and
// critical (SRC1+SRC2) configurations of §4.3.
func BenchmarkCriticalUpdateMode(b *testing.B) {
	params := benchParams(6, 0.30, 0.60)
	systems := []experiment.System{experiment.Frodo2P}
	var fn, fc float64
	for i := 0; i < b.N; i++ {
		normal := experiment.Sweep(experiment.SweepConfig{Systems: systems, Params: params})
		critical := experiment.Sweep(experiment.SweepConfig{Systems: systems, Params: params,
			Opts: experiment.Options{Frodo: func(c *frodo.Config) { c.CriticalUpdates = true }}})
		_, fn, _ = normal.Curves[experiment.Frodo2P].Average()
		_, fc, _ = critical.Curves[experiment.Frodo2P].Average()
	}
	b.ReportMetric(fn, "F-noncritical")
	b.ReportMetric(fc, "F-critical")
}

// BenchmarkGuaranteeGrid checks the Configuration Update Principles over
// the single-outage grid for one FRODO and one first-generation system —
// the paper's guarantee claims as a benchmark ([24], [8]).
func BenchmarkGuaranteeGrid(b *testing.B) {
	grid := verify.Grid(false)
	var fr, up verify.Result
	for i := 0; i < b.N; i++ {
		fr = verify.Check(experiment.Frodo2P, grid)
		up = verify.Check(experiment.UPnP, grid)
	}
	b.ReportMetric(float64(len(fr.Violations)), "violations/frodo2p")
	b.ReportMetric(float64(len(up.Violations)), "violations/upnp")
}

// BenchmarkPollingVsNotification quantifies CM2 (§4.2): persistent
// polling repairs missed notifications (higher F) while burning
// redundant messages (lower G) — "polling is the more effective method
// if the application allows persistent polling ... [but] slower" and
// wasteful for rarely-changing services.
func BenchmarkPollingVsNotification(b *testing.B) {
	params := benchParams(6, 0.15, 0.30)
	systems := []experiment.System{experiment.UPnP, experiment.Frodo2P}
	var base, polled experiment.SweepResult
	for i := 0; i < b.N; i++ {
		base = experiment.Sweep(experiment.SweepConfig{Systems: systems, Params: params})
		polled = experiment.Sweep(experiment.SweepConfig{Systems: systems, Params: params,
			Opts: experiment.Options{
				UPnP:  func(c *upnp.Config) { c.PollPeriod = 600 * sim.Second },
				Jini:  func(c *jini.Config) { c.PollPeriod = 600 * sim.Second },
				Frodo: func(c *frodo.Config) { c.PollPeriod = 600 * sim.Second },
			}})
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
		res := experiment.Sweep(experiment.SweepConfig{
			Systems: []experiment.System{experiment.UPnP, experiment.Frodo2P},
			Params:  params,
			Opts:    experiment.Options{Loss: 0.2},
		})
		_, fU, _ = res.Curves[experiment.UPnP].Average()
		_, fF, _ = res.Curves[experiment.Frodo2P].Average()
	}
	b.ReportMetric(fU, "F-upnp@20%loss")
	b.ReportMetric(fF, "F-frodo2p@20%loss")
}
