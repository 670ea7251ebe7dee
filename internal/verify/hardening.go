package verify

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// FigureHardening compares each system baseline-vs-hardened under the
// hunted fault envelope: the λ/partition/burst-loss/heavy-tail/churn mix
// the chaos hunter found violations in. For every system it reports the
// zero-failure effort m′ (one clean run per mode — hardening must not
// tax the fault-free path), then the hostile-mix averages: update
// effectiveness F, mean counted effort ȳ, total oracle violations, and
// the worst RenewAck lateness past lease expiry (the purge-latency tail
// the strict-lease mechanism bounds). The runs go through
// experiment.Pool on workers goroutines (0 means GOMAXPROCS).
func FigureHardening(base experiment.Params, runs, workers int, progress func(done, total int)) experiment.Table {
	if runs <= 0 {
		runs = 5
	}

	// The hostile mix, drawn from the hunted corpus: a mid-run bisection
	// (exercising the single-central probe), bursty loss over heavy-tailed
	// reordered delivery, churn (retired-silence), and a high interface
	// failure rate. Duration leaves HealSlack after the heal so the probe
	// always runs.
	mix := experiment.ScenarioSpec{
		Lambda:      0.6,
		DurationSec: 9300,
		Partitions:  []experiment.SpecPartition{{StartSec: 3000, DurationSec: 2000}},
		Churn:       experiment.SpecChurn{Departures: 1, Arrivals: 2},
		Link: experiment.SpecLink{BurstAvg: 0.15, BurstLen: 8, DelayDist: "pareto",
			ReorderProb: 0.2, ReorderExtraSec: 0.25},
	}
	hostile, mp, hostileOpts := base, mix.Params(), mix.Options()
	hostile.RunDuration, hostile.Partitions, hostile.Churn = mp.RunDuration, mp.Partitions, mp.Churn

	type cell struct {
		mprime, reached, included, effort, viol int
		maxLate                                 sim.Duration
	}
	systems := experiment.Systems()
	cells := make([][2]cell, len(systems)) // per system: baseline, hardened
	// Each (system, mode) runs job k = 0, its m′, then the hostile runs.
	perMode := 1 + runs
	jobOf := func(i int) (sys, mode, k int) { return i / (2 * perMode), i / perMode % 2, i % perMode }
	type outcome struct {
		rep OracleReport
		res metrics.RunResult
	}
	observe := func(i int) outcome {
		s, mode, k := jobOf(i)
		// m′: the zero-failure, fault-free effort of §4.5.
		spec := experiment.RunSpec{System: systems[s], Seed: base.BaseSeed, Params: base}
		if k > 0 {
			spec = experiment.RunSpec{System: systems[s], Lambda: mix.Lambda, Seed: base.BaseSeed + int64(k-1),
				Params: hostile, Opts: hostileOpts}
		}
		spec.Opts.Hardened = mode == 1
		rep, res := ObserveRun(spec, DefaultOracleConfig(systems[s]))
		return outcome{rep, res}
	}
	total, done := len(systems)*2*perMode, 0
	experiment.Pool(total, workers, func() func(int) outcome { return observe }, func(i int, o outcome) {
		s, mode, k := jobOf(i)
		c := &cells[s][mode]
		if k == 0 {
			c.mprime = o.res.Effort
		} else {
			for _, u := range o.res.Users {
				if !u.Excluded {
					c.included++
					if u.Reached {
						c.reached++
					}
				}
			}
			c.effort += o.res.Effort
			c.viol += o.rep.Total
			c.maxLate = max(c.maxLate, o.rep.MaxPurgeLate)
		}
		done++
		if progress != nil {
			progress(done, total)
		}
	})

	t := experiment.Table{
		Title: fmt.Sprintf("Hardening layer: baseline vs hardened under the hunted fault mix (λ=%.2f, %d runs)",
			mix.Lambda, runs),
		Header: []string{"system", "m'", "m'(hard)", "F", "F(hard)", "ȳ", "ȳ(hard)",
			"viol", "viol(hard)", "purge-late s", "purge-late s(hard)"},
	}
	f := func(c cell) string {
		if c.included == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.3f", float64(c.reached)/float64(c.included))
	}
	for i, sys := range systems {
		b, h := cells[i][0], cells[i][1]
		t.Rows = append(t.Rows, []string{
			sys.Short(),
			fmt.Sprintf("%d", b.mprime), fmt.Sprintf("%d", h.mprime),
			f(b), f(h),
			fmt.Sprintf("%d", b.effort/runs), fmt.Sprintf("%d", h.effort/runs),
			fmt.Sprintf("%d", b.viol), fmt.Sprintf("%d", h.viol),
			fmt.Sprintf("%.1f", b.maxLate.Sec()), fmt.Sprintf("%.1f", h.maxLate.Sec()),
		})
	}
	t.Notes = append(t.Notes,
		"m' is the zero-failure effort (hardening must leave it unchanged); F/ȳ/viol/purge-late come from the hostile mix",
		"viol counts oracle invariant breaches across all runs; purge-late is the worst RenewAck lateness past lease expiry",
		"residual frodo viol at this λ is environmental: interface outages overlapping the heal-probe window silence even a gated, honest Central")
	return t
}
