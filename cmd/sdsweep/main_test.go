package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/netsim"
)

// hardenedSpec writes a scenario spec that turns hardening on.
func hardenedSpec(t *testing.T) string {
	path := filepath.Join(t.TempDir(), "hardened.json")
	if err := os.WriteFile(path, []byte(`{"seed": 1, "hardened": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDesignChecksFlags(t *testing.T) {
	// The command line's defaults.
	def := config{figure: "all", runs: 30, seed: 1, burstLen: 8, delayDist: "uniform"}
	hardened := hardenedSpec(t)
	for _, tc := range []struct {
		name string
		edit func(*config)
		want string // error substring; "" = accepted
	}{
		{"defaults", func(c *config) {}, ""},
		{"table2", func(c *config) { c.figure = "table2" }, ""},
		{"table5", func(c *config) { c.figure = "table5" }, ""},
		{"one run", func(c *config) { c.runs = 1 }, ""},
		{"unknown figure", func(c *config) { c.figure = "8" }, `unknown figure "8"`},
		{"zero runs", func(c *config) { c.runs = 0 }, "-runs must be at least 1, got 0"},
		{"negative runs", func(c *config) { c.runs = -1; c.figure = "4" }, "-runs must be at least 1, got -1"},
		{"hardening twice", func(c *config) { c.figure = "hardening"; c.harden = true }, "drop -harden"},
		{"hardened spec", func(c *config) { c.figure = "hardening"; c.scenario = hardened }, "drop -harden"},
		{"negative users", func(c *config) { c.topo.Users = -3 }, "-users must not be negative"},
		{"negative churn", func(c *config) { c.churn = -1 }, "must not be negative"},
		{"burst rate", func(c *config) { c.burstLoss = 1 }, "-burst-loss needs a rate in (0,1)"},
		{"burst unreachable", func(c *config) { c.burstLoss = 0.9; c.burstLen = 2 }, "unreachable"},
		{"delay dist", func(c *config) { c.delayDist = "cauchy" }, "cauchy"},
		{"partition", func(c *config) { c.partition = "3000" }, "-partition wants start:duration"},
		{"scenario and flag", func(c *config) {
			c.scenario = "spec.json"
			c.set = map[string]bool{"users": true}
		}, "drop -users"},
		{"missing scenario", func(c *config) { c.scenario = "no-such-spec.json" }, "no-such-spec.json"},
	} {
		c := def
		tc.edit(&c)
		_, _, err := c.design()
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

// The flags land in the sweep's parameters; -runs in particular is never
// replaced by the paper's default.
func TestDesignResolvesFlags(t *testing.T) {
	c := config{figure: "4", runs: 2, seed: 7, burstLen: 8, delayDist: "pareto",
		partition: "3000:4000", harden: true, topo: experiment.Topology{Users: 9}}
	p, o, err := c.design()
	if err != nil {
		t.Fatal(err)
	}
	if p.Runs != 2 || p.BaseSeed != 7 || p.Topology.Users != 9 || len(p.Partitions) != 1 || !p.Hardened {
		t.Errorf("params = %+v", p)
	}
	if o.Link.Delay.Dist != netsim.DelayPareto {
		t.Errorf("link = %+v", o.Link)
	}

	// A hardened spec hardens every figure, not only those fed the
	// spec's Options.
	c = config{figure: "7", runs: 2, seed: 1, scenario: hardenedSpec(t)}
	if p, _, err = c.design(); err != nil || !p.Hardened {
		t.Errorf("hardened spec: hardened = %v, err = %v", p.Hardened, err)
	}
}
