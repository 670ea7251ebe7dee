package experiment

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSpecParseStrict(t *testing.T) {
	good := `{
		"seed": 7, "lambda": 0.3, "duration_sec": 9000,
		"failure_window": {"start_sec": 0, "end_sec": 4000},
		"topology": {"users": 20, "managers": 2},
		"churn": {"departures": 1.5, "mean_absence_sec": 300},
		"partitions": [{"start_sec": 1000, "duration_sec": 400}],
		"link": {"burst_avg": 0.2, "burst_len": 8, "delay_dist": "pareto"},
		"flash_crowds": [{"at_sec": 2000, "users": 30, "window_sec": 10}],
		"rack_failures": {"racks": 4, "fail": 1, "window_start_sec": 500,
		                  "window_end_sec": 3000, "duration_sec": 600, "spread_sec": 5}
	}`
	s, err := ParseSpec(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	p := s.RunSpec(Frodo2P).Params.withDefaults()
	if p.FailureWindowStart != 0 || !p.FailureWindowSet {
		t.Errorf("explicit zero failure-window start lost: %+v", p)
	}
	if p.RunDuration != 9000*sim.Second || p.Topology.Users != 20 {
		t.Errorf("spec params mismatch: %+v", p)
	}
	if len(p.Partitions) != 1 || !p.Partitions[0].Bisect {
		t.Errorf("partition plan mismatch: %+v", p.Partitions)
	}
	if len(p.FlashCrowds) != 1 || p.FlashCrowds[0].Users != 30 {
		t.Errorf("flash crowd mismatch: %+v", p.FlashCrowds)
	}
	if !p.RackFailures.Enabled() {
		t.Error("rack failures not enabled")
	}
	if o := s.Options(); !o.Link.Burst.Enabled() {
		t.Error("burst loss not enabled from spec")
	}

	// Unknown fields must fail up front with the field name in the error.
	if _, err := ParseSpec(strings.NewReader(`{"seed": 1, "lamda": 0.3}`)); err == nil ||
		!strings.Contains(err.Error(), "lamda") {
		t.Errorf("unknown field not rejected by name: %v", err)
	}
}

func TestSpecValidateFieldPaths(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"lambda", `{"lambda": 1.5}`, "lambda"},
		{"topology", `{"topology": {"users": -3}}`, "users"},
		{"services", `{"topology": {"services": 4}}`, "managers"},
		{"partition duration", `{"partitions": [{"start_sec": 10, "duration_sec": 0}]}`, "partitions[0]"},
		{"partition overlap", `{"partitions": [{"start_sec": 0, "duration_sec": 100},
			{"start_sec": 50, "duration_sec": 100}]}`, "overlaps"},
		{"burst infeasible", `{"link": {"burst_avg": 0.9, "burst_len": 2}}`, "burst_avg"},
		{"burst and loss", `{"link": {"burst_avg": 0.2, "burst_len": 8, "loss": 0.1}}`, "alternatives"},
		{"delay dist", `{"link": {"delay_dist": "zipf"}}`, "delay_dist"},
		{"reorder", `{"link": {"reorder_prob": 2}}`, "reorder_prob"},
		{"flash crowd", `{"flash_crowds": [{"at_sec": -1, "users": 3}]}`, "flash_crowds[0]"},
		{"racks", `{"rack_failures": {"racks": 2, "fail": 5, "duration_sec": 10}}`, "rack"},
		{"failure window", `{"failure_window": {"start_sec": 100, "end_sec": 50}}`, "failure_window"},
		{"changes", `{"changes": -1}`, "changes"},
		{"shards", `{"shards": 2}`, "shards"},
		{"cross_min_sec", `{"cross_min_sec": 0.5}`, "cross_min_sec"},
		{"cross_max_sec", `{"cross_max_sec": 0.5}`, "cross_max_sec"},
	}
	for _, c := range cases {
		_, err := ParseSpec(strings.NewReader(c.json))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error mentioning %q, got %v", c.name, c.want, err)
		}
	}
}

func TestSpecEncodeRoundTrip(t *testing.T) {
	s := &ScenarioSpec{
		Seed: 11, Lambda: 0.15, DurationSec: 7200,
		Topology:    SpecTopology{Users: 8},
		Partitions:  []SpecPartition{{StartSec: 500, DurationSec: 200}},
		FlashCrowds: []SpecFlashCrowd{{AtSec: 900, Users: 4, WindowSec: 5}},
	}
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("encoded spec does not re-parse: %v\n%s", err, data)
	}
	if back.Seed != s.Seed || back.Lambda != s.Lambda ||
		len(back.Partitions) != 1 || len(back.FlashCrowds) != 1 {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

// A spec with no faults at all must reproduce the paper's run exactly:
// same seed, same result as the hand-assembled RunSpec.
func TestSpecZeroValueMatchesPaperRun(t *testing.T) {
	spec := &ScenarioSpec{Seed: 5}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	fromSpec := Run(spec.RunSpec(UPnP))
	direct := Run(RunSpec{System: UPnP, Lambda: 0, Seed: 5, Params: DefaultParams()})
	if fromSpec.Effort != direct.Effort || fromSpec.ChangeAt != direct.ChangeAt ||
		len(fromSpec.Users) != len(direct.Users) {
		t.Errorf("zero spec diverges from the paper run: %+v vs %+v", fromSpec, direct)
	}
}
