package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/metrics"
)

// SweepConfig selects the systems and design for a failure-rate sweep.
type SweepConfig struct {
	Systems []System
	Params  Params
	// Opts applies to every system.
	Opts Options
	// Workers bounds the parallel worker pool; 0 means GOMAXPROCS.
	Workers int
	// Progress, when set, is called after each completed run.
	Progress func(done, total int)
	// RetainRaw keeps every run's full RunResult in SweepResult.Raw. Off
	// by default: the sweep then retains only the streaming per-cell
	// summaries, so memory stays flat in the number of Users — the mode
	// the scale scenarios (thousands of Users, many cells) require.
	RetainRaw bool
}

// SweepResult holds the aggregated curves and efficiency baselines.
type SweepResult struct {
	Systems []System
	Params  Params
	// Curves maps each system to its metric series over λ.
	Curves map[System]metrics.Curve
	// MPrime is the measured zero-failure effort per system; M is the
	// minimum across systems (the paper's m = 7).
	MPrime map[System]int
	M      int
	// Raw keeps every run's observations, indexed [system][lambdaIdx][run].
	// Nil unless SweepConfig.RetainRaw is set.
	Raw map[System][][]metrics.RunResult
}

// Pool runs jobs 0…n-1 on workers goroutines (0 means GOMAXPROCS). Each
// worker calls start once and runs its jobs through the function start
// returns, so per-worker state such as a Workspace lives in that
// closure. collect receives every outcome on the calling goroutine, in
// completion order, and Pool returns after the last one.
func Pool[T any](n, workers int, start func() func(job int) T, collect func(job int, out T)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type outcome struct {
		job int
		out T
	}
	jobs := make(chan int)
	outcomes := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := start()
			for j := range jobs {
				outcomes <- outcome{j, run(j)}
			}
		}()
	}
	go func() {
		for j := 0; j < n; j++ {
			jobs <- j
		}
		close(jobs)
		wg.Wait()
		close(outcomes)
	}()
	for o := range outcomes {
		collect(o.job, o.out)
	}
}

// Sweep runs the full experiment grid on a parallel worker pool: every
// (system, λ, run) cell is an independent simulation with its own kernel
// and derived seed, and results are aggregated into per-cell streaming
// accumulators in run-index order, so the sweep is deterministic
// regardless of parallelism.
func Sweep(cfg SweepConfig) SweepResult {
	if len(cfg.Systems) == 0 {
		cfg.Systems = Systems()
	}
	cfg.Params = cfg.Params.withDefaults()
	// Fail fast on invalid network options: validated once, up front, so
	// a bad parameterization surfaces immediately instead of panicking in
	// a worker mid-sweep.
	if _, err := cfg.Opts.netConfig(); err != nil {
		panic(fmt.Sprintf("experiment: invalid sweep options: %v", err))
	}
	lambdas, runs := len(cfg.Params.Lambdas), cfg.Params.Runs
	total := len(cfg.Systems) * lambdas * runs
	// cellOf decodes job j into its (system, λ index, run) cell; jobs run
	// system-major, then λ, then run.
	cellOf := func(j int) (System, int, int) {
		return cfg.Systems[j/(runs*lambdas)], j / runs % lambdas, j % runs
	}

	cells := map[System][]*metrics.Cell{}
	var raw map[System][][]metrics.RunResult
	if cfg.RetainRaw {
		raw = map[System][][]metrics.RunResult{}
	}
	for _, sys := range cfg.Systems {
		cells[sys] = make([]*metrics.Cell, lambdas)
		if cfg.RetainRaw {
			raw[sys] = make([][]metrics.RunResult, lambdas)
		}
		for li := range cfg.Params.Lambdas {
			cells[sys][li] = metrics.NewCell(runs)
			if cfg.RetainRaw {
				raw[sys][li] = make([]metrics.RunResult, runs)
			}
		}
	}
	done := 0
	Pool(total, cfg.Workers, func() func(int) metrics.RunResult {
		// One workspace per worker: consecutive runs on this goroutine
		// reuse the kernel's event pool, the network's node and group
		// storage, the recorder maps — and, per system shape, the whole
		// protocol-instance graph. TrustOptions is sound here because a
		// sweep's Options are fixed for its whole lifetime.
		ws := NewWorkspace()
		ws.TrustOptions()
		return func(j int) metrics.RunResult {
			sys, li, r := cellOf(j)
			return RunInto(ws, RunSpec{
				System: sys,
				Lambda: cfg.Params.Lambdas[li],
				Seed:   SeedFor(cfg.Params.BaseSeed, sys, li, r),
				Params: cfg.Params,
				Opts:   cfg.Opts,
			})
		}
	}, func(j int, res metrics.RunResult) {
		sys, li, r := cellOf(j)
		cells[sys][li].AddResult(r, res)
		if cfg.RetainRaw {
			raw[sys][li][r] = res
		}
		done++
		if cfg.Progress != nil {
			cfg.Progress(done, total)
		}
	})

	return aggregate(cfg, cells, raw)
}

func aggregate(cfg SweepConfig, cells map[System][]*metrics.Cell, raw map[System][][]metrics.RunResult) SweepResult {
	res := SweepResult{
		Systems: cfg.Systems,
		Params:  cfg.Params,
		Curves:  map[System]metrics.Curve{},
		MPrime:  map[System]int{},
		Raw:     raw,
	}

	// Measure m' from the λ=0 cell when present; otherwise fall back to
	// the paper's constants.
	zeroIdx := slices.Index(cfg.Params.Lambdas, 0)
	res.M = 1 << 30
	for _, sys := range cfg.Systems {
		mp := PaperMPrime(sys)
		if zeroIdx >= 0 && cells[sys][zeroIdx].Runs() > 0 {
			mp = cells[sys][zeroIdx].MinPositiveEffort()
		}
		res.MPrime[sys] = mp
		res.M = min(res.M, mp)
	}

	for _, sys := range cfg.Systems {
		var curve metrics.Curve
		for li := range cfg.Params.Lambdas {
			curve.Points = append(curve.Points, cells[sys][li].Point(res.MPrime[sys]))
		}
		res.Curves[sys] = curve
	}
	return res
}
