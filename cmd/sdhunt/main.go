// Command sdhunt runs the chaos hunter: a deterministic,
// coverage-guided fuzz of the scenario space (churn × partitions ×
// burst loss × delay × flash crowds × rack failures) against the
// run-time consistency oracle, minimizing any violation to a
// committable fixture.
//
// The -budget is wall-clock-shaped but charged against a deterministic
// cost model (virtual node-seconds), so the same -budget and -seed
// reproduce the identical corpus, findings and report on any machine.
//
// Usage:
//
//	sdhunt -budget 60s -seed 1            # hunt for one budgeted minute
//	sdhunt -iters 50 -systems frodo2p     # iteration-capped, one system
//	sdhunt -budget 60s -out hunted/       # write fixtures + corpus specs
//	sdhunt -budget 60s -corpus hunted/corpus  # resume from a committed corpus
//	sdhunt -budget 60s -harden            # hunt with the hardening layer on
//	sdhunt -replay internal/hunt/testdata # replay every committed fixture
//
// Exit status: 0 — clean hunt or all replays pass; 1 — violations
// found or a replay failed; 2 — usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/hunt"
	"repro/internal/obs"
)

func main() {
	// -seed seeds the hunt's mutations; -harden hardens every candidate.
	design := experiment.Flags{Spec: experiment.ScenarioSpec{Seed: 1}}
	design.Register(flag.CommandLine, "seed", "harden")
	var (
		budget  = flag.Duration("budget", 0, "hunt budget as a wall-clock-shaped duration (charged deterministically; 0 = use -iters)")
		iters   = flag.Int("iters", 0, "cap on mutated candidates (0 = budget-bounded only)")
		systems = flag.String("systems", "", "comma-separated systems to audit (default: all five)")
		out     = flag.String("out", "", "directory to write finding fixtures and the corpus into")
		report  = flag.String("report", "", "also write the JSON report to this file (always printed to stdout)")
		replay  = flag.String("replay", "", "replay every *.json fixture in this directory instead of hunting")
		corpus  = flag.String("corpus", "", "seed the hunt with every *.json spec or fixture scenario in this directory (resume from a committed corpus)")
		telem   = flag.String("telemetry", "", "write the metrics registry as JSON to this file at exit (- for stdout)")
		verbose = flag.Bool("v", false, "log hunt progress to stderr")
	)
	flag.Parse()

	// The registry is passive: hunts stay deterministic (same corpus,
	// same findings) with metering on — the dump just shows the frame
	// and violation volume the hunt pushed through the fabric.
	var reg *obs.Registry
	if *telem != "" {
		reg = obs.NewRegistry()
		experiment.SetTelemetry(reg)
	}

	if *replay != "" {
		code := replayDir(*replay)
		dumpTelemetry(reg, *telem)
		os.Exit(code)
	}
	if *budget <= 0 && *iters <= 0 {
		fmt.Fprintln(os.Stderr, "sdhunt: need -budget or -iters (an unbounded hunt never ends)")
		os.Exit(2)
	}

	cfg := hunt.Config{
		Seed:   design.Spec.Seed,
		Budget: int64(budget.Seconds() * hunt.CostPerWallSecond),
		Iters:  *iters,
		Harden: design.Spec.Hardened,
	}
	if *corpus != "" {
		specs, err := hunt.LoadCorpus(*corpus)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdhunt: %v\n", err)
			os.Exit(2)
		}
		cfg.Corpus = specs
	}
	if *systems != "" {
		for _, name := range strings.Split(*systems, ",") {
			sys, err := experiment.ParseSystem(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "sdhunt: %v\n", err)
				os.Exit(2)
			}
			cfg.Systems = append(cfg.Systems, sys)
		}
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hunt: "+format+"\n", args...)
		}
	}

	h := hunt.New(cfg)
	rep := h.Run()

	if *out != "" {
		if err := writeOutputs(h, *out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "sdhunt: %v\n", err)
			os.Exit(2)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdhunt: %v\n", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	os.Stdout.Write(data)
	if *report != "" {
		if err := os.WriteFile(*report, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sdhunt: %v\n", err)
			os.Exit(2)
		}
	}
	dumpTelemetry(reg, *telem)
	if !rep.Clean() {
		os.Exit(1)
	}
}

// dumpTelemetry writes the registry, if metering is on, to path;
// failing is a usage error.
func dumpTelemetry(reg *obs.Registry, path string) {
	if reg == nil {
		return
	}
	if err := reg.WriteJSONFile(path, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sdhunt: -telemetry: %v\n", err)
		os.Exit(2)
	}
}

// writeOutputs drops one fixture file per finding and the full corpus
// (replayable starting points for the next hunt) into dir.
func writeOutputs(h *hunt.Hunter, dir string, rep *hunt.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, fx := range h.Fixtures() {
		name := fmt.Sprintf("hunted-%s-%s.json", fx.System, fx.Expect.Invariant)
		data, err := fx.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
		rep.Findings[i].Fixture = name
	}
	// The corpus goes into its own subdirectory: corpus entries are bare
	// specs, not fixtures, and -replay must not try to replay them.
	corpusDir := filepath.Join(dir, "corpus")
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		return err
	}
	for i, spec := range h.Corpus() {
		data, err := spec.Encode()
		if err != nil {
			return err
		}
		name := fmt.Sprintf("corpus-%03d.json", i)
		if err := os.WriteFile(filepath.Join(corpusDir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replayDir loads and replays every fixture under dir, reporting each
// verdict; any failure makes the exit status 1.
func replayDir(dir string) int {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdhunt: %v\n", err)
		return 2
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "sdhunt: no fixtures under %s\n", dir)
		return 2
	}
	failed := 0
	for _, path := range paths {
		start := time.Now()
		fx, err := hunt.LoadFixture(path)
		if err != nil {
			fmt.Printf("FAIL  %s: %v\n", path, err)
			failed++
			continue
		}
		rep, _, err := hunt.Replay(fx)
		if err != nil {
			fmt.Printf("FAIL  %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Printf("ok    %s: %s (%.1fs)\n", path, rep, time.Since(start).Seconds())
	}
	if failed > 0 {
		fmt.Printf("%d/%d fixtures failed replay\n", failed, len(paths))
		return 1
	}
	return 0
}
