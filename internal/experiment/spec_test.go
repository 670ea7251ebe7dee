package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
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
		{"change max below default min", `{"seed": 1, "change_max_sec": 50}`, "change_min_sec 100 exceeds change_max_sec 50"},
		{"change min above default max", `{"seed": 1, "change_min_sec": 3000}`, "change_min_sec 3000 exceeds change_max_sec 2700"},
		{"shards", `{"shards": 2}`, "shards"},
		{"cross_min_sec", `{"cross_min_sec": 0.5}`, "cross_min_sec"},
		{"cross_max_sec", `{"cross_max_sec": 0.5}`, "cross_max_sec"},
		{"rack window negative", `{"rack_failures": {"racks": 2, "fail": 1, "window_start_sec": -5,
			"window_end_sec": 100, "duration_sec": 10}}`, "rack_failures.window_start_sec"},
		// Every *_sec field is bounded, so no second count overflows
		// sim.Time into a negative instant.
		{"duration overflow", `{"duration_sec": 1e300}`, "duration_sec"},
		{"change min overflow", `{"change_min_sec": 1e19}`, "change_min_sec"},
		{"change max overflow", `{"change_max_sec": 1e19}`, "change_max_sec"},
		{"window start overflow", `{"failure_window": {"start_sec": 1e19, "end_sec": 2e19}}`, "failure_window.start_sec"},
		{"window end overflow", `{"failure_window": {"start_sec": 0, "end_sec": 1e19}}`, "failure_window.end_sec"},
		{"absence overflow", `{"churn": {"departures": 1, "mean_absence_sec": 1e19}}`, "churn.mean_absence_sec"},
		{"partition start overflow", `{"partitions": [{"start_sec": 1e19, "duration_sec": 1}]}`, "partitions[0].start_sec"},
		{"partition duration overflow", `{"partitions": [{"start_sec": 0, "duration_sec": 1e19}]}`, "partitions[0].duration_sec"},
		{"reorder extra overflow", `{"link": {"reorder_prob": 0.1, "reorder_extra_sec": 1e19}}`, "link.reorder_extra_sec"},
		{"flash crowd at overflow", `{"flash_crowds": [{"at_sec": 1e19, "users": 3}]}`, "flash_crowds[0].at_sec"},
		{"flash crowd window overflow", `{"flash_crowds": [{"at_sec": 0, "users": 3, "window_sec": 1e19}]}`, "flash_crowds[0].window_sec"},
		{"rack window start overflow", `{"rack_failures": {"racks": 2, "fail": 1, "window_start_sec": 1e19,
			"window_end_sec": 2e19, "duration_sec": 10}}`, "rack_failures.window_start_sec"},
		{"rack window end overflow", `{"rack_failures": {"racks": 2, "fail": 1, "window_end_sec": 1e19,
			"duration_sec": 10}}`, "rack_failures.window_end_sec"},
		{"rack duration overflow", `{"rack_failures": {"racks": 2, "fail": 1, "duration_sec": 1e19}}`, "rack_failures.duration_sec"},
		{"rack spread overflow", `{"rack_failures": {"racks": 2, "fail": 1, "duration_sec": 10, "spread_sec": 1e19}}`, "rack_failures.spread_sec"},
		{"outage role", `{"outages": [{"node": "central", "mode": "tx", "start_sec": 0, "duration_sec": 10}]}`, "outages[0].node"},
		{"outage role index", `{"outages": [{"node": "user:01", "mode": "tx", "start_sec": 0, "duration_sec": 10}]}`, "outages[0].node"},
		{"outage mode", `{"outages": [{"node": "manager", "mode": "Tx", "start_sec": 0, "duration_sec": 10}]}`, "outages[0].mode"},
		{"outage duration", `{"outages": [{"node": "manager", "mode": "tx", "start_sec": 0, "duration_sec": 0}]}`, "outages[0].duration_sec"},
		{"outage start overflow", `{"outages": [{"node": "manager", "mode": "tx", "start_sec": 1e19, "duration_sec": 1}]}`, "outages[0].start_sec"},
		{"outage overlap", `{"outages": [{"node": "user:0", "mode": "tx", "start_sec": 0, "duration_sec": 100},
			{"node": "manager", "mode": "rx", "start_sec": 50, "duration_sec": 100},
			{"node": "user:0", "mode": "rx", "start_sec": 99, "duration_sec": 10}]}`, "outages[2] overlaps outages[0]"},
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

// Every ScenarioSpec field reaches the run: setting it alone moves
// Params() or Options() exactly as the hand-built value says. The spec
// struct is walked by reflection, so a new field without a row here
// fails the test — the class of bug that once dropped Hardened.
func TestSpecConversionCoversEveryField(t *testing.T) {
	sec := func(s float64) sim.Duration { return sim.Duration(s * float64(sim.Second)) }
	at := func(s float64) sim.Time { return sim.Time(sec(s)) }
	racks := SpecRacks{Racks: 4, Fail: 1, WindowStartSec: 500, WindowEndSec: 3000, DurationSec: 600, SpreadSec: 5}
	rows := []struct {
		fields []string // the leaf fields the row covers
		set    func(*ScenarioSpec)
		want   func(*Params, *Options)
	}{
		{[]string{"Seed"}, func(s *ScenarioSpec) { s.Seed = 9 }, func(p *Params, o *Options) { p.BaseSeed = 9 }},
		{[]string{"Lambda"}, func(s *ScenarioSpec) { s.Lambda = 0.3 }, func(p *Params, o *Options) { p.Lambdas = []float64{0.3} }},
		{[]string{"DurationSec"}, func(s *ScenarioSpec) { s.DurationSec = 7200 }, func(p *Params, o *Options) { p.RunDuration = sec(7200) }},
		{[]string{"ChangeMinSec"}, func(s *ScenarioSpec) { s.ChangeMinSec = 200 }, func(p *Params, o *Options) { p.ChangeMin = at(200) }},
		{[]string{"ChangeMaxSec"}, func(s *ScenarioSpec) { s.ChangeMaxSec = 2000 }, func(p *Params, o *Options) { p.ChangeMax = at(2000) }},
		{[]string{"Changes"}, func(s *ScenarioSpec) { s.Changes = 3 }, func(p *Params, o *Options) { p.Changes = 3 }},
		{[]string{"FailureWindow.StartSec", "FailureWindow.EndSec"},
			func(s *ScenarioSpec) { s.FailureWindow = &SpecWindow{StartSec: 0, EndSec: 4000} },
			func(p *Params, o *Options) {
				p.FailureWindowSet, p.FailureWindowStart, p.FailureWindowEnd = true, 0, at(4000)
			}},
		{[]string{"Topology.Users"}, func(s *ScenarioSpec) { s.Topology.Users = 20 }, func(p *Params, o *Options) { p.Topology.Users = 20 }},
		{[]string{"Topology.Managers"}, func(s *ScenarioSpec) { s.Topology.Managers = 3 }, func(p *Params, o *Options) { p.Topology.Managers = 3 }},
		{[]string{"Topology.Registries"}, func(s *ScenarioSpec) { s.Topology.Registries = 2 }, func(p *Params, o *Options) { p.Topology.Registries = 2 }},
		{[]string{"Topology.Services"},
			func(s *ScenarioSpec) { s.Topology.Managers, s.Topology.Services = 3, 2 },
			func(p *Params, o *Options) { p.Topology.Managers, p.Topology.Services = 3, 2 }},
		{[]string{"Churn.Departures"}, func(s *ScenarioSpec) { s.Churn.Departures = 1.5 }, func(p *Params, o *Options) { p.Churn.Departures = 1.5 }},
		{[]string{"Churn.MeanAbsenceSec"}, func(s *ScenarioSpec) { s.Churn.MeanAbsenceSec = 300 }, func(p *Params, o *Options) { p.Churn.MeanAbsence = sec(300) }},
		{[]string{"Churn.Arrivals"}, func(s *ScenarioSpec) { s.Churn.Arrivals = 2 }, func(p *Params, o *Options) { p.Churn.Arrivals = 2 }},
		{[]string{"Partitions.StartSec", "Partitions.DurationSec"},
			func(s *ScenarioSpec) { s.Partitions = []SpecPartition{{StartSec: 1000, DurationSec: 400}} },
			func(p *Params, o *Options) {
				p.Partitions = []netsim.Partition{{Start: at(1000), Duration: sec(400), Bisect: true}}
			}},
		{[]string{"Link.BurstAvg"}, func(s *ScenarioSpec) { s.Link.BurstAvg = 0.2 },
			func(p *Params, o *Options) { o.Link.Burst = netsim.BurstForAverage(0.2, 1) }},
		{[]string{"Link.BurstLen"}, func(s *ScenarioSpec) { s.Link.BurstAvg, s.Link.BurstLen = 0.2, 8 },
			func(p *Params, o *Options) { o.Link.Burst = netsim.BurstForAverage(0.2, 8) }},
		{[]string{"Link.Loss"}, func(s *ScenarioSpec) { s.Link.Loss = 0.1 }, func(p *Params, o *Options) { o.Loss = 0.1 }},
		{[]string{"Link.DelayDist"}, func(s *ScenarioSpec) { s.Link.DelayDist = "pareto" },
			func(p *Params, o *Options) { o.Link.Delay.Dist = netsim.DelayPareto }},
		{[]string{"Link.DelaySigma"}, func(s *ScenarioSpec) { s.Link.DelaySigma = 0.5 }, func(p *Params, o *Options) { o.Link.Delay.Sigma = 0.5 }},
		{[]string{"Link.DelayAlpha"}, func(s *ScenarioSpec) { s.Link.DelayAlpha = 2 }, func(p *Params, o *Options) { o.Link.Delay.Alpha = 2 }},
		{[]string{"Link.ReorderProb"}, func(s *ScenarioSpec) { s.Link.ReorderProb = 0.2 }, func(p *Params, o *Options) { o.Link.Reorder.Prob = 0.2 }},
		{[]string{"Link.ReorderExtraSec"}, func(s *ScenarioSpec) { s.Link.ReorderExtraSec = 0.25 },
			func(p *Params, o *Options) { o.Link.Reorder.Extra = sec(0.25) }},
		{[]string{"FlashCrowds.AtSec", "FlashCrowds.Users", "FlashCrowds.WindowSec"},
			func(s *ScenarioSpec) { s.FlashCrowds = []SpecFlashCrowd{{AtSec: 2000, Users: 30, WindowSec: 10}} },
			func(p *Params, o *Options) { p.FlashCrowds = []FlashCrowd{{At: at(2000), Users: 30, Window: sec(10)}} }},
		{[]string{"RackFailures.Racks", "RackFailures.Fail", "RackFailures.WindowStartSec",
			"RackFailures.WindowEndSec", "RackFailures.DurationSec", "RackFailures.SpreadSec"},
			func(s *ScenarioSpec) { s.RackFailures = racks },
			func(p *Params, o *Options) {
				p.RackFailures = netsim.RackPlanConfig{Racks: 4, Fail: 1, WindowStart: at(500), WindowEnd: at(3000),
					Duration: sec(600), Spread: sec(5)}
			}},
		{[]string{"Outages.Node", "Outages.Mode", "Outages.StartSec", "Outages.DurationSec"},
			func(s *ScenarioSpec) {
				s.Outages = []SpecOutage{{Node: "registry:1", Mode: "rx", StartSec: 400, DurationSec: 900}}
			},
			func(p *Params, o *Options) {
				p.Outages = []Outage{{Node: "registry:1", Mode: netsim.FailRx, Start: at(400), Duration: sec(900)}}
			}},
		{[]string{"Hardened"}, func(s *ScenarioSpec) { s.Hardened = true },
			func(p *Params, o *Options) { o.Hardened = true }},
	}

	// The zero spec is the paper's design: one run at λ=0.
	base := func() (Params, Options) {
		p := DefaultParams()
		p.Runs, p.Lambdas = 1, []float64{0}
		return p, Options{}
	}
	var zero ScenarioSpec
	if p, o := base(); !reflect.DeepEqual(zero.Params(), p) || !reflect.DeepEqual(zero.Options(), o) {
		t.Fatalf("zero spec: Params %+v, Options %+v", zero.Params(), zero.Options())
	}

	covered := map[string]bool{}
	for _, r := range rows {
		var s ScenarioSpec
		r.set(&s)
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", r.fields, err)
			continue
		}
		wantP, wantO := base()
		r.want(&wantP, &wantO)
		if p, o := base(); reflect.DeepEqual(wantP, p) && reflect.DeepEqual(wantO, o) {
			t.Errorf("%v: the row expects no change", r.fields)
		}
		if got := s.Params(); !reflect.DeepEqual(got, wantP) {
			t.Errorf("%v: Params\n got %+v\nwant %+v", r.fields, got, wantP)
		}
		if got := s.Options(); !reflect.DeepEqual(got, wantO) {
			t.Errorf("%v: Options\n got %+v\nwant %+v", r.fields, got, wantO)
		}
		for _, f := range r.fields {
			covered[f] = true
		}
	}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := f.Name
			if path != "" {
				name = path + "." + name
			}
			ft := f.Type
			if ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(ft, name)
			} else if !covered[name] {
				t.Errorf("spec field %s has no conversion row", name)
			}
		}
	}
	walk(reflect.TypeOf(ScenarioSpec{}), "")
}

// FuzzParseSpec fuzzes the codec every scenario file loads through. Its
// committed seed corpus (testdata/fuzz/FuzzParseSpec) holds the
// scenarios of the hunt fixtures. On every input: ParseSpec never
// panics; an accepted spec survives Encode → ParseSpec unchanged; its
// Params hold no negative time or duration; its Options validate; and
// its outages last at least a nanosecond, none overlapping another on
// the same node.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"seed": 1}`))
	f.Add([]byte(`{"seed": 1, "partitions": [{"start_sec": 1e19, "duration_sec": 1}]}`))
	f.Add([]byte(`{"seed": 1, "duration_sec": 1e300}`))
	f.Add([]byte(`{"seed": 1, "change_max_sec": 50}`))
	f.Add([]byte(`{"seed": 1, "outages": [{"node": "user:0", "mode": "both", "start_sec": 400, "duration_sec": 300},
		{"node": "user:0", "mode": "tx", "start_sec": 700, "duration_sec": 100}, {"node": "manager", "mode": "rx", "start_sec": 500, "duration_sec": 60}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		back, err := ParseSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("encoded spec does not re-parse: %v\n%s", err, enc)
		}
		// omitempty drops an empty list; nil and empty mean the same.
		for _, sp := range []*ScenarioSpec{s, back} {
			if len(sp.Partitions) == 0 {
				sp.Partitions = nil
			}
			if len(sp.FlashCrowds) == 0 {
				sp.FlashCrowds = nil
			}
			if len(sp.Outages) == 0 {
				sp.Outages = nil
			}
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, s)
		}
		p := s.Params()
		checkNoNegativeTime(t, reflect.ValueOf(p), "Params")
		if p.ChangeMin > p.ChangeMax {
			t.Fatalf("accepted spec resolves to an empty change window [%v, %v]", p.ChangeMin, p.ChangeMax)
		}
		if err := s.Options().Validate(); err != nil {
			t.Fatalf("accepted spec has invalid Options: %v", err)
		}
		for i, o := range p.Outages {
			if o.Duration <= 0 {
				t.Fatalf("accepted spec has outages[%d] of duration %v", i, o.Duration)
			}
			for j, q := range p.Outages[:i] {
				if o.Node == q.Node && o.Start < q.Start+sim.Time(q.Duration) && q.Start < o.Start+sim.Time(o.Duration) {
					t.Fatalf("accepted spec has outages[%d] overlapping outages[%d] on %s", i, j, o.Node)
				}
			}
		}
	})
}

// checkNoNegativeTime fails on any sim.Time or sim.Duration below zero,
// at any depth of v.
func checkNoNegativeTime(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch {
	case v.Type() == reflect.TypeOf(sim.Time(0)) || v.Type() == reflect.TypeOf(sim.Duration(0)):
		if v.Int() < 0 {
			t.Fatalf("%s = %d is negative", path, v.Int())
		}
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkNoNegativeTime(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			checkNoNegativeTime(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	}
}
