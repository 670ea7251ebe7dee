package verify

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// HardeningFixes names, in ScenarioSpec's JSON, the fields
// FigureHardening sets itself: the hostile mix's link, partitions, churn
// and duration, and both hardening modes. A design that sets one would
// be overwritten, so sdsweep refuses it.
var HardeningFixes = []string{"link", "hardened", "partitions", "churn", "duration_sec"}

// FigureHardening compares each system baseline-vs-hardened under the
// hunted fault envelope: the λ/partition/burst-loss/heavy-tail/churn mix
// the chaos hunter found violations in. For every system it reports the
// zero-failure effort m′ (one clean run per mode — hardening must not
// tax the fault-free path), then the hostile-mix averages over base.Runs
// (at least 1) runs: update effectiveness F, mean counted effort ȳ,
// total oracle violations, and the worst RenewAck lateness past lease
// expiry (the purge-latency tail the strict-lease mechanism bounds). The
// runs are one spec list audited on workers goroutines (0 means
// GOMAXPROCS).
func FigureHardening(base experiment.Params, workers int, progress func(done, total int)) experiment.Table {
	runs := base.Runs

	// The hostile mix, drawn from the hunted corpus: a mid-run bisection
	// (exercising the single-central probe), bursty loss over heavy-tailed
	// reordered delivery, churn (retired-silence), and a high interface
	// failure rate. Duration leaves HealSlack after the heal so the probe
	// always runs. It overwrites the HardeningFixes fields of the design.
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

	// Per system and mode: the m′ run — the zero-failure, fault-free
	// effort of §4.5 — then the hostile runs.
	systems := experiment.Systems()
	var specs []experiment.RunSpec
	for _, sys := range systems {
		for _, hardened := range []bool{false, true} {
			specs = append(specs, experiment.RunSpec{System: sys, Seed: base.BaseSeed, Params: base,
				Opts: experiment.Options{Hardened: hardened}})
			opts := hostileOpts
			opts.Hardened = hardened
			for k := range runs {
				specs = append(specs, experiment.RunSpec{System: sys, Lambda: mix.Lambda, Seed: base.BaseSeed + int64(k),
					Params: hostile, Opts: opts})
			}
		}
	}

	type cell struct {
		mprime, reached, included, effort, viol int
		maxLate                                 sim.Duration
	}
	cells := make([][2]cell, len(systems)) // per system: baseline, hardened
	next := Audit(specs, workers, progress)
	for s := range systems {
		for mode := range 2 {
			c := &cells[s][mode]
			c.mprime = next[0].Run.Effort
			for _, a := range next[1 : 1+runs] {
				for _, u := range a.Run.Users {
					if !u.Excluded {
						c.included++
						if u.Reached {
							c.reached++
						}
					}
				}
				c.effort += a.Run.Effort
				c.viol += a.Report.Total
				c.maxLate = max(c.maxLate, a.Report.MaxPurgeLate)
			}
			next = next[1+runs:]
		}
	}

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
