// Command benchmark is the repository's benchmark: four workloads over
// the simulator and the live daemon, each run in a fresh process,
// printing every metric by name with its unit and regression bound and
// checking that the program's outputs are correct.
//
//	go run ./benchmark -workload paper_sweep                 # end-to-end metrics
//	go run ./benchmark -workload paper_sweep -trace 1        # per-layer metrics
//	go run ./benchmark -compare a.jsonl b.jsonl              # two sets of runs
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md in this
// directory for what each workload loads and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is one invocation's full record, written by -out as one JSON
// line and read back by -compare.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Scale     string             `json:"scale"`
	Env       map[string]string  `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// outputLine is the contract's last line of standard output.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "derives every input of the run")
		seconds  = fs.Float64("seconds", 20, "length of the measured phase")
		trace    = fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		traceOut = fs.String("trace-out", "", "with -trace 1: write the spans to this file as JSON")
		scale    = fs.String("scale", "full", "full or smoke (smoke: the same code at sizes a test finishes in seconds)")
		out      = fs.String("out", "", "append the full report to this file as one JSON line")
		compare  = fs.Bool("compare", false, "compare two report files: -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].Name == *workload {
			wl = &workloads[i]
		}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	switch *scale {
	case "full":
		cfg.sz = fullSizes
	case "smoke":
		cfg.sz = smokeSizes
	}
	if wl == nil || cfg.sz.name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload (%s), -scale full|smoke, -seconds > 0, -trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}

	var tr *tracer
	defs := endToEnd
	if cfg.trace {
		tr = newTracer()
		defs = perLayer
	}
	start := time.Now()
	res := wl.run(cfg, tr)
	wall := time.Since(start)
	if cfg.trace {
		tr.summarize(res.values)
		if *traceOut != "" {
			if err := tr.write(*traceOut); err != nil {
				fmt.Fprintf(stderr, "benchmark: trace-out: %v\n", err)
				return 1
			}
		}
	} else {
		res.set("peak_rss_mb", peakRSSMB())
	}
	if res.attempted < 1 {
		res.problemf("%s: no operation attempted", wl.Name)
	}

	rep := report{Workload: wl.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Scale: cfg.sz.name,
		Env: env(), Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		WallS: wall.Seconds(), Metrics: res.values, Samples: res.samples, Problems: res.problems, Notes: res.notes}
	printReport(stdout, rep, defs)
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fmt.Fprintf(stderr, "benchmark: out: %v\n", err)
			return 1
		}
	}
	line := outputLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: res.values[d.Name], Unit: d.Unit}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// printReport is the human-readable half of the output: host, every
// metric with unit, bound and sample count, then notes and problems.
func printReport(w io.Writer, rep report, defs []metricDef) {
	pass := "untraced"
	if rep.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "workload %s  pass %s  seed %d  seconds %g  scale %s  wall %.1fs\n",
		rep.Workload, pass, rep.Seed, rep.Seconds, rep.Scale, rep.WallS)
	keys := make([]string, 0, len(rep.Env))
	for k := range rep.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "env %s=%s\n", k, rep.Env[k])
	}
	for _, d := range defs {
		bound, n := "", ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%% (%s is better)", 100*d.Bound, d.Better)
		}
		if c, ok := rep.Samples[d.Name]; ok {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Fprintf(w, "%-36s %16.6g %-6s%s%s\n", d.Name, rep.Metrics[d.Name], d.Unit, bound, n)
	}
	share := 0.0
	if rep.Attempted > 0 {
		share = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "failed_share %g (%d of %d)\n", share, rep.Failed, rep.Attempted)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
}

func appendReport(path string, rep report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
