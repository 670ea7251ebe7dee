package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// ScenarioSpec is the declarative, JSON-serializable form of one
// scenario: topology, failure rate, churn, partitions, link
// conditioning, flash crowds, rack failures and fixed outages, with all
// times in seconds so fixtures stay human-readable and diffable. It is the
// currency of the chaos hunter (internal/hunt): mutated specs form the
// fuzzing corpus, minimized violating specs become committed fixtures,
// and sdsweep/sdverify accept the same files, so a hunted scenario can
// be fed straight back through every tool.
//
// The zero value reproduces the paper's §5 design at λ=0. Decoding is
// strict (unknown fields are errors) and Validate reports the offending
// field by path, so a malformed fixture fails up front, not mid-run.
type ScenarioSpec struct {
	// Seed derives every random draw of the run; the spec plus the seed
	// replays the identical timeline.
	Seed int64 `json:"seed"`
	// Lambda is the interface-failure rate λ ∈ [0,1].
	Lambda float64 `json:"lambda,omitempty"`
	// DurationSec is the run length D; 0 means the paper's 5400s.
	DurationSec float64 `json:"duration_sec,omitempty"`
	// ChangeMinSec/ChangeMaxSec bound the service-change time; 0 means
	// the paper's 100s/2700s.
	ChangeMinSec float64 `json:"change_min_sec,omitempty"`
	ChangeMaxSec float64 `json:"change_max_sec,omitempty"`
	// Changes is the number of service changes; 0 means 1.
	Changes int `json:"changes,omitempty"`
	// FailureWindow bounds the λ outage activations; omitted means the
	// paper's [100s, 5400s]. Present, it is taken verbatim — including a
	// start of 0.
	FailureWindow *SpecWindow `json:"failure_window,omitempty"`
	// Topology is the scenario shape; zero fields mean system defaults.
	Topology SpecTopology `json:"topology,omitempty"`
	// Churn is the Poisson population model; zero disables it.
	Churn SpecChurn `json:"churn,omitempty"`
	// Partitions schedules transient splits.
	Partitions []SpecPartition `json:"partitions,omitempty"`
	// Link selects the adversarial link models; zero is the paper's
	// idealized network.
	Link SpecLink `json:"link,omitempty"`
	// FlashCrowds schedules arrival spikes.
	FlashCrowds []SpecFlashCrowd `json:"flash_crowds,omitempty"`
	// RackFailures adds correlated rack-level outages.
	RackFailures SpecRacks `json:"rack_failures,omitempty"`
	// Outages schedules fixed interface outages on named roles, on top
	// of the λ plan.
	Outages []SpecOutage `json:"outages,omitempty"`
	// Hardened runs the scenario with the protocol-hardening layer on
	// (Options.Hardened); hunted fixtures commit a hardened counterpart
	// that must replay clean.
	Hardened bool `json:"hardened,omitempty"`
}

// SpecWindow is a [start, end) time window in seconds.
type SpecWindow struct {
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
}

// SpecTopology mirrors Topology in spec units.
type SpecTopology struct {
	Users      int `json:"users,omitempty"`
	Managers   int `json:"managers,omitempty"`
	Registries int `json:"registries,omitempty"`
	Services   int `json:"services,omitempty"`
}

// SpecChurn mirrors Churn in spec units.
type SpecChurn struct {
	Departures     float64 `json:"departures,omitempty"`
	MeanAbsenceSec float64 `json:"mean_absence_sec,omitempty"`
	Arrivals       float64 `json:"arrivals,omitempty"`
}

// SpecPartition is one scheduled bisecting split.
type SpecPartition struct {
	StartSec    float64 `json:"start_sec"`
	DurationSec float64 `json:"duration_sec"`
}

// SpecOutage is one fixed interface outage. Node is a role name —
// "manager", "user:<i>" or "registry:<i>" — resolved against each
// system's built scenario; Mode is "tx", "rx" or "both".
type SpecOutage struct {
	Node        string  `json:"node"`
	Mode        string  `json:"mode"`
	StartSec    float64 `json:"start_sec"`
	DurationSec float64 `json:"duration_sec"`
}

// failModes maps the spec's outage modes onto the interfaces they take
// down.
var failModes = map[string]netsim.FailMode{"tx": netsim.FailTx, "rx": netsim.FailRx, "both": netsim.FailBoth}

// SpecLink selects the link-conditioning models.
type SpecLink struct {
	// BurstAvg enables Gilbert–Elliott loss at this stationary average
	// rate; BurstLen is the mean burst length in frames (min 1).
	BurstAvg float64 `json:"burst_avg,omitempty"`
	BurstLen float64 `json:"burst_len,omitempty"`
	// Loss is the i.i.d. alternative; exclusive with BurstAvg.
	Loss float64 `json:"loss,omitempty"`
	// DelayDist is uniform|lognormal|pareto ("" = uniform).
	DelayDist  string  `json:"delay_dist,omitempty"`
	DelaySigma float64 `json:"delay_sigma,omitempty"`
	DelayAlpha float64 `json:"delay_alpha,omitempty"`
	// ReorderProb/ReorderExtraSec add probabilistic out-of-order delay.
	ReorderProb     float64 `json:"reorder_prob,omitempty"`
	ReorderExtraSec float64 `json:"reorder_extra_sec,omitempty"`
}

// SpecFlashCrowd is one arrival spike.
type SpecFlashCrowd struct {
	AtSec     float64 `json:"at_sec"`
	Users     int     `json:"users"`
	WindowSec float64 `json:"window_sec,omitempty"`
}

// SpecRacks mirrors netsim.RackPlanConfig in spec units.
type SpecRacks struct {
	Racks          int     `json:"racks,omitempty"`
	Fail           int     `json:"fail,omitempty"`
	WindowStartSec float64 `json:"window_start_sec,omitempty"`
	WindowEndSec   float64 `json:"window_end_sec,omitempty"`
	DurationSec    float64 `json:"duration_sec,omitempty"`
	SpreadSec      float64 `json:"spread_sec,omitempty"`
}

func secs(s float64) sim.Time        { return sim.Time(s * float64(sim.Second)) }
func secsDur(s float64) sim.Duration { return sim.Duration(s * float64(sim.Second)) }

// ParseSpec decodes one scenario spec strictly: unknown fields are
// errors (a typo in a fixture must not silently become a default), and
// the decoded spec is validated.
func ParseSpec(r io.Reader) (*ScenarioSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s ScenarioSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode renders the spec as committable indented JSON.
func (s *ScenarioSpec) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Validate checks every field and reports the first offender by path.
func (s *ScenarioSpec) Validate() error {
	if err := checkFloats(reflect.ValueOf(*s), ""); err != nil {
		return err
	}
	if s.Lambda < 0 || s.Lambda > 1 {
		return fmt.Errorf("scenario: lambda %v out of [0,1]", s.Lambda)
	}
	// An unset bound takes its default (100 s, 2,700 s), so the window
	// is checked as the run will draw from it.
	if p := s.Params(); p.ChangeMin > p.ChangeMax {
		return fmt.Errorf("scenario: change_min_sec %v exceeds change_max_sec %v once defaults apply",
			p.ChangeMin.Sec(), p.ChangeMax.Sec())
	}
	if s.Changes < 0 {
		return fmt.Errorf("scenario: changes %d must not be negative", s.Changes)
	}
	if w := s.FailureWindow; w != nil {
		if w.EndSec < w.StartSec {
			return fmt.Errorf("scenario: failure_window [%v, %v] invalid", w.StartSec, w.EndSec)
		}
	}
	if err := s.Topology.topology().Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if c := s.Churn; c.Departures < 0 || c.Arrivals < 0 {
		return fmt.Errorf("scenario: churn fields must not be negative")
	}
	for i, p := range s.Partitions {
		if p.DurationSec <= 0 {
			return fmt.Errorf("scenario: partitions[%d].duration_sec %v must be positive", i, p.DurationSec)
		}
		for j, q := range s.Partitions[:i] {
			if overlaps(p.StartSec, p.DurationSec, q.StartSec, q.DurationSec) {
				return fmt.Errorf("scenario: partitions[%d] overlaps partitions[%d]", i, j)
			}
		}
	}
	for i, o := range s.Outages {
		if _, _, err := parseRole(o.Node); err != nil {
			return fmt.Errorf("scenario: outages[%d].node: %w", i, err)
		}
		if _, ok := failModes[o.Mode]; !ok {
			return fmt.Errorf("scenario: outages[%d].mode %q is not tx, rx or both", i, o.Mode)
		}
		if secsDur(o.DurationSec) <= 0 {
			return fmt.Errorf("scenario: outages[%d].duration_sec %v must be at least a nanosecond", i, o.DurationSec)
		}
		for j, q := range s.Outages[:i] {
			if o.Node == q.Node && overlaps(o.StartSec, o.DurationSec, q.StartSec, q.DurationSec) {
				return fmt.Errorf("scenario: outages[%d] overlaps outages[%d] on %s", i, j, o.Node)
			}
		}
	}
	if err := s.Link.validate(); err != nil {
		return err
	}
	for i, fc := range s.FlashCrowds {
		if fc.Users < 0 {
			return fmt.Errorf("scenario: flash_crowds[%d].users %d must not be negative", i, fc.Users)
		}
	}
	if r := s.RackFailures; r != (SpecRacks{}) {
		if r.Racks <= 0 || r.Fail <= 0 {
			return fmt.Errorf("scenario: rack_failures needs positive racks and fail, got %d/%d", r.Racks, r.Fail)
		}
		if err := s.rackConfig().Validate(); err != nil {
			return fmt.Errorf("scenario: rack_failures: %w", err)
		}
	}
	// The assembled options must produce a valid network configuration
	// (catches e.g. loss+burst set together).
	if err := s.Options().Validate(); err != nil {
		return fmt.Errorf("scenario: link: %w", err)
	}
	return nil
}

// overlaps reports whether two [start, start+duration) windows meet.
func overlaps(aStart, aDur, bStart, bDur float64) bool {
	return aStart < bStart+bDur && bStart < aStart+aDur
}

func (l SpecLink) validate() error {
	if l.BurstAvg < 0 || l.BurstAvg >= 1 {
		return fmt.Errorf("scenario: link.burst_avg %v out of [0,1)", l.BurstAvg)
	}
	if l.BurstAvg > 0 {
		ln := l.BurstLen
		if ln == 0 {
			ln = 1
		}
		if ln < 1 {
			return fmt.Errorf("scenario: link.burst_len %v must be ≥ 1", l.BurstLen)
		}
		if l.BurstAvg/(1-l.BurstAvg) > ln {
			return fmt.Errorf("scenario: link.burst_avg %v unreachable with burst_len %v (needs ≥ %.3f)",
				l.BurstAvg, ln, l.BurstAvg/(1-l.BurstAvg))
		}
		if l.Loss > 0 {
			return fmt.Errorf("scenario: link.loss and link.burst_avg are alternatives; set one")
		}
	}
	if l.Loss < 0 || l.Loss > 1 {
		return fmt.Errorf("scenario: link.loss %v out of [0,1]", l.Loss)
	}
	if _, err := netsim.ParseDelayDist(l.DelayDist); err != nil {
		return fmt.Errorf("scenario: link.delay_dist: %w", err)
	}
	if l.DelaySigma < 0 || l.DelayAlpha < 0 {
		return fmt.Errorf("scenario: link.delay_sigma/delay_alpha must not be negative")
	}
	if l.ReorderProb < 0 || l.ReorderProb > 1 {
		return fmt.Errorf("scenario: link.reorder_prob %v out of [0,1]", l.ReorderProb)
	}
	return nil
}

// maxSpecSec bounds every *_sec field: 1e9 s keeps secs/secsDur, and
// sums of a few such times, far inside sim.Time's ±9.2e9 s.
const maxSpecSec = 1e9

// checkFloats names, by JSON path, the first float at any depth of v
// that is not finite (a flag can pass one) or is a *_sec field outside
// [0, maxSpecSec].
func checkFloats(v reflect.Value, path string) error {
	switch v = reflect.Indirect(v); v.Kind() {
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if err := checkFloats(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			if path != "" {
				name = path + "." + name
			}
			if err := checkFloats(v.Field(i), name); err != nil {
				return err
			}
		}
	case reflect.Float64:
		switch x := v.Float(); {
		case math.IsNaN(x) || math.IsInf(x, 0):
			return fmt.Errorf("scenario: %s %v is not a finite number", path, x)
		case strings.HasSuffix(path, "_sec") && (x < 0 || x > maxSpecSec):
			return fmt.Errorf("scenario: %s %v out of [0, %g] seconds", path, x, maxSpecSec)
		}
	}
	return nil
}

func (t SpecTopology) topology() Topology {
	return Topology{Users: t.Users, Managers: t.Managers, Registries: t.Registries, Services: t.Services}
}

func (s *ScenarioSpec) rackConfig() netsim.RackPlanConfig {
	r := s.RackFailures
	return netsim.RackPlanConfig{
		Racks:       r.Racks,
		Fail:        r.Fail,
		WindowStart: secs(r.WindowStartSec),
		WindowEnd:   secs(r.WindowEndSec),
		Duration:    secsDur(r.DurationSec),
		Spread:      secsDur(r.SpreadSec),
	}
}

// Params assembles the experiment parameters the spec describes, fully
// resolved: zero spec fields take the paper defaults here (Run, unlike
// Sweep, uses its Params verbatim). Runs is 1 and Lambdas is the single
// spec λ — a spec names one scenario, not a sweep grid. Outages keep
// their role names; each run resolves them against its own system.
func (s *ScenarioSpec) Params() Params {
	p := Params{
		RunDuration: secsDur(s.DurationSec),
		ChangeMin:   secs(s.ChangeMinSec),
		ChangeMax:   secs(s.ChangeMaxSec),
		Changes:     s.Changes,
		Runs:        1,
		Lambdas:     []float64{s.Lambda},
		BaseSeed:    s.Seed,
		Topology:    s.Topology.topology(),
		Churn: Churn{
			Departures:  s.Churn.Departures,
			MeanAbsence: secsDur(s.Churn.MeanAbsenceSec),
			Arrivals:    s.Churn.Arrivals,
		},
		RackFailures: s.rackConfig(),
	}
	if w := s.FailureWindow; w != nil {
		p.FailureWindowSet = true
		p.FailureWindowStart = secs(w.StartSec)
		p.FailureWindowEnd = secs(w.EndSec)
	}
	for _, sp := range s.Partitions {
		p.Partitions = append(p.Partitions, netsim.Partition{
			Start:    secs(sp.StartSec),
			Duration: secsDur(sp.DurationSec),
			Bisect:   true,
		})
	}
	for _, fc := range s.FlashCrowds {
		p.FlashCrowds = append(p.FlashCrowds, FlashCrowd{
			At:     secs(fc.AtSec),
			Users:  fc.Users,
			Window: secsDur(fc.WindowSec),
		})
	}
	for _, o := range s.Outages {
		p.Outages = append(p.Outages, Outage{
			Node:     o.Node,
			Mode:     failModes[o.Mode],
			Start:    secs(o.StartSec),
			Duration: secsDur(o.DurationSec),
		})
	}
	return p.withDefaults()
}

// Options assembles the link-conditioning options the spec describes,
// and its hardening.
func (s *ScenarioSpec) Options() Options {
	var link netsim.LinkConfig
	if s.Link.BurstAvg > 0 {
		ln := s.Link.BurstLen
		if ln < 1 {
			ln = 1
		}
		link.Burst = netsim.BurstForAverage(s.Link.BurstAvg, ln)
	}
	dist, _ := netsim.ParseDelayDist(s.Link.DelayDist)
	link.Delay = netsim.DelayConfig{Dist: dist, Sigma: s.Link.DelaySigma, Alpha: s.Link.DelayAlpha}
	link.Reorder = netsim.ReorderConfig{Prob: s.Link.ReorderProb, Extra: secsDur(s.Link.ReorderExtraSec)}
	return Options{Loss: s.Link.Loss, Link: link, Hardened: s.Hardened}
}

// RunSpec assembles one runnable spec for a system. The run inherits
// the scenario seed, so spec + system fully determine the timeline.
func (s *ScenarioSpec) RunSpec(sys System) RunSpec {
	return RunSpec{
		System: sys,
		Lambda: s.Lambda,
		Seed:   s.Seed,
		Params: s.Params(),
		Opts:   s.Options(),
	}
}
