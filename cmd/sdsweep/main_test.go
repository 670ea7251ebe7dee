package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/hunt"
	"repro/internal/netsim"
)

// writeSpec writes a scenario spec file.
func writeSpec(t *testing.T, json string) string {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(json), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const fixture = "../../internal/hunt/testdata/hunted-frodo2p-lease-purge.json"

// resolveArgs runs a command line through sdsweep's flag set and resolve.
func resolveArgs(args ...string) (experiment.Params, experiment.Options, error) {
	var c config
	fs := flag.NewFlagSet("sdsweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		return experiment.Params{}, experiment.Options{}, err
	}
	_, p, o, err := c.resolve()
	return p, o, err
}

func TestDesignChecksFlags(t *testing.T) {
	hardened := writeSpec(t, `{"seed": 1, "hardened": true}`)
	linked := writeSpec(t, `{"seed": 1, "link": {"delay_dist": "pareto"}}`)
	registry := writeSpec(t, `{"seed": 1, "outages": [{"node": "registry:0", "mode": "rx", "start_sec": 500, "duration_sec": 60}]}`)
	manager := writeSpec(t, `{"seed": 1, "outages": [{"node": "manager", "mode": "rx", "start_sec": 500, "duration_sec": 60}]}`)
	long := writeSpec(t, `{"seed": 1, "duration_sec": 6000}`)
	for _, tc := range []struct {
		name string
		args []string
		want string // error substring; "" = accepted
	}{
		{"defaults", nil, ""},
		{"table2", []string{"-figure", "table2"}, ""},
		{"table5", []string{"-figure", "table5"}, ""},
		{"one run", []string{"-runs", "1"}, ""},
		{"unknown figure", []string{"-figure", "8"}, `unknown figure "8"`},
		{"zero runs", []string{"-runs", "0"}, "-runs must be at least 1, got 0"},
		{"negative runs", []string{"-runs", "-1", "-figure", "4"}, "-runs must be at least 1, got -1"},
		{"hardening twice", []string{"-figure", "hardening", "-harden"}, "drop -harden"},
		{"hardened spec", []string{"-figure", "hardening", "-scenario", hardened}, "drop -harden"},
		{"negative users", []string{"-users", "-3"}, "-users must not be negative"},
		{"negative churn", []string{"-churn", "-1"}, "must not be negative"},
		{"churn NaN", []string{"-churn", "NaN"}, "churn.departures NaN is not a finite number"},
		{"absence overflow", []string{"-absence", "1e10"}, "churn.mean_absence_sec"},
		{"burst rate", []string{"-burst-loss", "1"}, "burst_avg 1 out of [0,1)"},
		{"burst unreachable", []string{"-burst-loss", "0.9", "-burst-len", "2"}, "unreachable"},
		{"delay dist", []string{"-delay-dist", "cauchy"}, "cauchy"},
		{"partition", []string{"-partition", "3000"}, "-partition"},
		{"partition overflow", []string{"-figure", "table2", "-partition", "1e19:1"}, "partitions[0].start_sec"},
		{"scenario and flag", []string{"-scenario", hardened, "-users", "3"}, "drop -users"},
		{"missing scenario", []string{"-scenario", "no-such-spec.json"}, "no-such-spec.json"},
		{"fixture as scenario", []string{"-scenario", fixture}, ""},
		{"adversarial link", []string{"-figure", "adversarial", "-burst-loss", "0.2"}, "-figure adversarial fixes its own link"},
		{"loss link", []string{"-figure", "loss", "-delay-dist", "pareto"}, "-figure loss fixes its own link"},
		{"hardening spec link", []string{"-figure", "hardening", "-scenario", linked}, "-figure hardening fixes its own link"},
		{"idle link flag", []string{"-figure", "loss", "-burst-len", "4"}, ""},
		{"hardening partition", []string{"-figure", "hardening", "-partition", "3000:4000"},
			`-figure hardening fixes its own partitions; drop -partition or the spec's "partitions"`},
		{"hardening churn", []string{"-figure", "hardening", "-churn", "3"},
			`-figure hardening fixes its own churn; drop -churn, -absence, -arrivals or the spec's "churn"`},
		{"hardening arrivals", []string{"-figure", "hardening", "-arrivals", "2"},
			`-figure hardening fixes its own churn; drop -churn, -absence, -arrivals or the spec's "churn"`},
		{"hardening spec duration", []string{"-figure", "hardening", "-scenario", long},
			`-figure hardening fixes its own run duration; drop the spec's "duration_sec"`},
		{"figure 4 partition and churn", []string{"-figure", "4", "-partition", "3000:4000", "-churn", "1"}, ""},
		{"outage role", []string{"-scenario", manager}, ""},
		{"outage role UPnP lacks", []string{"-scenario", registry}, "UPnP has 5 Users and 0 Registries, no registry:0"},
	} {
		_, _, err := resolveArgs(tc.args...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want accepted", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: error spans lines: %q", tc.name, err)
		}
	}
}

// -telemetry - writes the registry through run's writer, after the
// figure, so a caller that captures stdout captures the dump.
func TestTelemetryToStdout(t *testing.T) {
	t.Cleanup(func() { experiment.SetTelemetry(nil) })
	var out bytes.Buffer
	if code := run([]string{"-figure", "table2", "-runs", "1", "-quiet", "-telemetry", "-"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	_, dump, ok := strings.Cut(out.String(), "\n{\n")
	if !ok {
		t.Fatalf("no registry JSON after the figure:\n%s", out.String())
	}
	var reg map[string]any
	if err := json.Unmarshal([]byte("{\n"+dump), &reg); err != nil {
		t.Fatalf("registry dump: %v", err)
	}
	if _, ok := reg[`sd_frames_delivered_total{shard="0"}`]; !ok {
		t.Errorf("registry dump lacks the frame counters: %v", reg)
	}
}

// The flags land in the sweep's parameters; -runs in particular is never
// replaced by the paper's default, and the sweep's axes win over a spec.
func TestDesignResolvesFlags(t *testing.T) {
	p, o, err := resolveArgs("-figure", "4", "-runs", "2", "-seed", "7", "-delay-dist", "pareto",
		"-partition", "3000:4000", "-harden", "-users", "9")
	if err != nil {
		t.Fatal(err)
	}
	if p.Runs != 2 || p.BaseSeed != 7 || p.Topology.Users != 9 || len(p.Partitions) != 1 || !o.Hardened {
		t.Errorf("params = %+v", p)
	}
	if len(p.Lambdas) != len(experiment.DefaultLambdas()) {
		t.Errorf("λ grid = %v", p.Lambdas)
	}
	if o.Link.Delay.Dist != netsim.DelayPareto {
		t.Errorf("link = %+v", o.Link)
	}

	// A hardened spec lands in the options every figure is fed.
	if p, o, err = resolveArgs("-figure", "7", "-runs", "2", "-scenario", writeSpec(t, `{"seed": 3, "hardened": true}`)); err != nil || !o.Hardened {
		t.Errorf("hardened spec: hardened = %v, err = %v", o.Hardened, err)
	}
	// The sweep's seed axis wins over the spec's seed, given or not.
	if p.BaseSeed != 1 {
		t.Errorf("base seed = %d, want the -seed default 1", p.BaseSeed)
	}

	// A hunted fixture is read through to its scenario.
	fx, err := hunt.LoadFixture(fixture)
	if err != nil {
		t.Fatal(err)
	}
	p, o, err = resolveArgs("-figure", "4", "-scenario", fixture, "-seed", "5")
	if err != nil {
		t.Fatal(err)
	}
	want := fx.Scenario.Params()
	if p.BaseSeed != 5 || !reflect.DeepEqual(p.Partitions, want.Partitions) || p.Churn != want.Churn ||
		p.RackFailures != want.RackFailures || o.Link != fx.Scenario.Options().Link {
		t.Errorf("fixture design lost: params %+v, link %+v", p, o.Link)
	}
}

// Every figure's stdout is pinned by a golden file under testdata, and
// is the same at one worker and at four. Each golden is `sdsweep <args>
// -runs 1 -quiet -workers 1`, recorded from the hand-built figures that
// the figure table and the variant renderer replaced; regenerate one only
// for a deliberate change of that figure's output.
func TestFiguresMatchGoldens(t *testing.T) {
	type golden struct {
		file string
		args []string
	}
	var cases []golden
	for _, f := range figures {
		cases = append(cases, golden{"figure-" + f.name, []string{"-figure", f.name}})
	}
	cases = append(cases,
		golden{"figure-4-harden", []string{"-figure", "4", "-harden"}},
		golden{"figure-all-csv-plot", []string{"-figure", "all", "-csv", "-plot"}})
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.file+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "4"} {
			var out bytes.Buffer
			args := append([]string{"-runs", "1", "-quiet", "-workers", workers}, c.args...)
			if code := run(args, &out); code != 0 {
				t.Fatalf("sdsweep %s: exit %d", strings.Join(args, " "), code)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("sdsweep %s: stdout differs from testdata/%s.golden:\n%s", strings.Join(args, " "), c.file, out.Bytes())
			}
		}
	}
}
