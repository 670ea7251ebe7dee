package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables: the file the driver reads and the
// tables the program prints from name the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want only benchmark", b.Paths)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %s: bad name, unit %q or better %q", kind, d.Name, d.Unit, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("%s %s: name used twice", kind, d.Name)
			}
			seen[d.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program, want the same in (0, 0.25]", kind, d.Name, g.Bound, d.Bound)
			case !bounded && (g.Bound != nil || d.Bound != 0):
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0] != (metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}) {
		t.Errorf("setup_s must lead the end-to-end metrics with the largest bound, got %+v", endToEnd[0])
	}
}

// lastLine decodes the contract's final line of standard output.
func lastLine(t *testing.T, out string) outputLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var line outputLine
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

// TestSmoke runs every workload, both passes, at smoke sizes: each
// completes, is correct, and emits exactly the metrics of its table.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	reports := filepath.Join(dir, "reports.jsonl")
	for _, w := range workloads {
		for _, pass := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			spans := filepath.Join(dir, w.Name+".spans.json")
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "0.3", "--trace", pass.trace,
				"-scale", "smoke", "-out", reports, "-trace-out", spans}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.Name, pass.trace, code, stdout.String(), stderr.String())
			}
			line := lastLine(t, stdout.String())
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, pass.trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(pass.defs) {
				t.Errorf("%s trace=%s: %d metrics emitted, table has %d", w.Name, pass.trace, len(line.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s missing or unit %q, want %q", w.Name, pass.trace, d.Name, m.Unit, d.Unit)
				}
				if d.Bound > 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if pass.trace == "1" {
				checkSpans(t, w.Name, spans, line)
			}
		}
	}

	// A set of runs agrees with itself; a set with a slowed copy does not.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", reports, reports}, &stdout, &stderr); code != 0 {
		t.Errorf("compare of a file with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	slowed := filepath.Join(dir, "slowed.jsonl")
	set, err := readReports(reports)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range set.untraced {
		for _, r := range rs {
			r.Metrics["ops_per_s"] /= 2
			if err := appendReport(slowed, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	stdout.Reset()
	if code := run([]string{"-compare", reports, slowed}, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), "REGRESSION") {
		t.Errorf("compare against a halved ops_per_s: exit %d\n%s", code, stdout.String())
	}
}

// checkSpans loads a -trace-out file: the main track's self times must
// add up to the root span.
func checkSpans(t *testing.T, workload, path string, line outputLine) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 || spans[0].Parent != -1 || spans[0].Name != "benchmark."+workload {
		t.Fatalf("%s: no root span", path)
	}
	var mainSum int64
	for i, self := range selfTimes(spans) {
		if spans[i].EndNS < spans[i].StartNS || self < 0 {
			t.Fatalf("%s: span %d (%s) ends before it starts or has negative self time", path, i, spans[i].Name)
		}
		if spans[i].Track == 0 {
			mainSum += self
		}
	}
	root := spans[0].EndNS - spans[0].StartNS
	if diff := float64(mainSum-root) / float64(root); diff > 0.05 || diff < -0.05 {
		t.Errorf("%s: main-track self times sum to %d ns, the root span lasts %d ns", path, mainSum, root)
	}
	if got := line.Metrics["trace.spans"].Value; int(got) != len(spans) {
		t.Errorf("%s: trace.spans = %v, file holds %d", workload, got, len(spans))
	}
}

// TestUsage: anything but a known workload and pass is refused without
// a result line.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "paper_sweep", "-trace", "2"},
		{"-workload", "paper_sweep", "-scale", "huge"},
		{"-compare", "only-one.jsonl"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v): exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
