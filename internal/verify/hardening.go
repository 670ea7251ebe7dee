package verify

import (
	"fmt"
	"sync"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// FigureHardening compares each system baseline-vs-hardened under the
// hunted fault envelope: the λ/partition/burst-loss/heavy-tail/churn mix
// the chaos hunter found violations in. For every system it reports the
// zero-failure effort m′ (one clean run per mode — hardening must not
// tax the fault-free path), then the hostile-mix averages: update
// effectiveness F, mean counted effort ȳ, total oracle violations, and
// the worst RenewAck lateness past lease expiry (the purge-latency tail
// the strict-lease mechanism bounds).
func FigureHardening(base experiment.Params, runs, workers int, progress func(done, total int)) experiment.Table {
	if runs <= 0 {
		runs = 5
	}
	if workers <= 0 {
		workers = 4
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
		mprime   int
		reached  int
		included int
		effort   int
		viol     int
		maxLate  sim.Duration
	}
	cells := [2]map[experiment.System]*cell{}
	for mode := range cells {
		cells[mode] = map[experiment.System]*cell{}
		for _, sys := range experiment.Systems() {
			cells[mode][sys] = &cell{}
		}
	}

	type job struct {
		sys    experiment.System
		mode   int // 0 baseline, 1 hardened
		seed   int64
		mprime bool
	}
	var jobs []job
	for _, sys := range experiment.Systems() {
		for mode := 0; mode < 2; mode++ {
			jobs = append(jobs, job{sys: sys, mode: mode, seed: base.BaseSeed, mprime: true})
			for i := 0; i < runs; i++ {
				jobs = append(jobs, job{sys: sys, mode: mode, seed: base.BaseSeed + int64(i)})
			}
		}
	}

	var mu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	ch := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				var spec experiment.RunSpec
				if j.mprime {
					// m′: the zero-failure, fault-free effort of §4.5.
					spec = experiment.RunSpec{System: j.sys, Lambda: 0, Seed: j.seed, Params: base}
				} else {
					spec = experiment.RunSpec{System: j.sys, Lambda: mix.Lambda, Seed: j.seed,
						Params: hostile, Opts: hostileOpts}
				}
				spec.Opts.Hardened = j.mode == 1
				rep, res := ObserveRun(spec, DefaultOracleConfig(j.sys))
				mu.Lock()
				c := cells[j.mode][j.sys]
				if j.mprime {
					c.mprime = res.Effort
				} else {
					for _, u := range res.Users {
						if u.Excluded {
							continue
						}
						c.included++
						if u.Reached {
							c.reached++
						}
					}
					c.effort += res.Effort
					c.viol += rep.Total
					if rep.MaxPurgeLate > c.maxLate {
						c.maxLate = rep.MaxPurgeLate
					}
				}
				done++
				if progress != nil {
					progress(done, len(jobs))
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()

	t := experiment.Table{
		Title: fmt.Sprintf("Hardening layer: baseline vs hardened under the hunted fault mix (λ=%.2f, %d runs)",
			mix.Lambda, runs),
		Header: []string{"system", "m'", "m'(hard)", "F", "F(hard)", "ȳ", "ȳ(hard)",
			"viol", "viol(hard)", "purge-late s", "purge-late s(hard)"},
	}
	f := func(c *cell) string {
		if c.included == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.3f", float64(c.reached)/float64(c.included))
	}
	for _, sys := range experiment.Systems() {
		b, h := cells[0][sys], cells[1][sys]
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
